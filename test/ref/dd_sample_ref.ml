(* The DD sampler as it ran before subtree norms were memoised on the
   node: a [Hashtbl] of squared subtree norms rebuilt on every call, then
   one top-down descent per shot.  Kept verbatim, less the trace span, as
   the reference that [Sim.sample]'s counts and [Pkg.subtree_norm2]'s
   values must equal exactly. *)
open Qdt_linalg
open Qdt_dd

(* Subtree squared norms for top-down sampling: s(node) = Σ|w_i|²·s(child). *)
let subtree_norms edge =
  let cache = Hashtbl.create 256 in
  let rec walk (e : Pkg.edge) =
    match e.Pkg.target with
    | Pkg.Terminal -> 1.0
    | Pkg.Node n -> (
        match Hashtbl.find_opt cache n.Pkg.id with
        | Some s -> s
        | None ->
            let acc = ref 0.0 in
            Array.iter
              (fun (child : Pkg.edge) ->
                if not (Pkg.is_zero child) then
                  acc := !acc +. (Cx.norm2 child.Pkg.w *. walk child))
              n.Pkg.edges;
            Hashtbl.replace cache n.Pkg.id !acc;
            !acc)
  in
  ignore (walk edge);
  cache

let sample ?(seed = 0) (root : Pkg.edge) ~shots =
  let rng = Random.State.make [| seed |] in
  let norms = subtree_norms root in
  let norm_of (e : Pkg.edge) =
    match e.Pkg.target with
    | Pkg.Terminal -> 1.0
    | Pkg.Node n -> Hashtbl.find norms n.Pkg.id
  in
  let counts = Hashtbl.create 64 in
  for _shot = 1 to shots do
    let rec descend (e : Pkg.edge) acc =
      match e.Pkg.target with
      | Pkg.Terminal -> acc
      | Pkg.Node n ->
          let p_edge (child : Pkg.edge) =
            if Pkg.is_zero child then 0.0 else Cx.norm2 child.Pkg.w *. norm_of child
          in
          let p0 = p_edge n.Pkg.edges.(0) and p1 = p_edge n.Pkg.edges.(1) in
          let total = p0 +. p1 in
          let bit = if Random.State.float rng total < p1 then 1 else 0 in
          (* A zero-probability branch can be drawn only on a degenerate
             total; guard against descending into a 0-stub. *)
          let bit = if Pkg.is_zero n.Pkg.edges.(bit) then 1 - bit else bit in
          descend n.Pkg.edges.(bit) (acc lor (bit lsl n.Pkg.var))
    in
    let k = descend root 0 in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
