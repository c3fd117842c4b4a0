open Qdt_linalg

let prune mgr edge ~threshold =
  if threshold < 0.0 then invalid_arg "Approx.prune: negative threshold";
  let memo = Hashtbl.create 256 in
  let rec rebuild (e : Pkg.edge) =
    if Pkg.is_zero e then e
    else
      match e.Pkg.target with
      | Pkg.Terminal -> e
      | Pkg.Node n ->
          let body =
            match Hashtbl.find_opt memo n.Pkg.id with
            | Some cached -> cached
            | None ->
                let children =
                  Array.map
                    (fun (child : Pkg.edge) ->
                      if Pkg.is_zero child then child
                      else if Cx.norm2 child.Pkg.w *. Pkg.subtree_norm2 child < threshold then
                        Pkg.zero_edge mgr
                      else rebuild child)
                    n.Pkg.edges
                in
                let result = Pkg.make_node mgr ~var:n.Pkg.var children in
                Hashtbl.replace memo n.Pkg.id result;
                result
          in
          Pkg.scale mgr e.Pkg.w body
  in
  let pruned = rebuild edge in
  if Pkg.is_zero pruned then invalid_arg "Approx.prune: threshold removed the whole state";
  let norm2 = (Pkg.inner mgr pruned pruned).Cx.re in
  Pkg.scale mgr (Cx.of_float (1.0 /. Float.sqrt norm2)) pruned

let prune_state st ~threshold =
  let mgr = Sim.manager st in
  let before = Sim.root st in
  let after = prune mgr before ~threshold in
  Sim.set_root st after;
  let fidelity = Cx.norm2 (Pkg.inner mgr before after) in
  (* The pruned-away subtrees are garbage now; reclaim them eagerly. *)
  Pkg.maybe_gc mgr;
  fidelity
