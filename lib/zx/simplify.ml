type report = {
  fusions : int;
  identities : int;
  local_complementations : int;
  pivots : int;
  rounds : int;
}

(* Observability: per-rule rewrite counters plus a span per fixpoint
   round, so a trace shows which rule family dominated each round. *)
let m_identities = Qdt_obs.Metrics.counter "zx.identities_removed"
let m_lcomps = Qdt_obs.Metrics.counter "zx.local_complementations"
let m_fusions = Qdt_obs.Metrics.counter "zx.fusions"
let m_pivots = Qdt_obs.Metrics.counter "zx.pivots"
let m_rounds = Qdt_obs.Metrics.counter "zx.rounds"
let p_spiders = Qdt_obs.Metrics.peak "zx.peak_spiders"
let p_edges = Qdt_obs.Metrics.peak "zx.peak_edges"

let interior_clifford_simp d =
  Qdt_obs.Trace.with_span "zx.simplify" @@ fun () ->
  Rules.to_graph_like d;
  let fusions = ref 0
  and identities = ref 0
  and lcomps = ref 0
  and pivs = ref 0
  and rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    Qdt_obs.Metrics.incr m_rounds;
    Qdt_obs.Metrics.raise_to_int p_spiders (Diagram.num_vertices d);
    Qdt_obs.Metrics.raise_to_int p_edges (Diagram.num_edges d);
    Qdt_obs.Trace.emit_begin "zx.round";
    let i = Qdt_obs.Trace.with_span "zx.identities" (fun () -> Rules.remove_identities d) in
    let l = Qdt_obs.Trace.with_span "zx.local-comp" (fun () -> Rules.local_complementations d) in
    let f1 = Qdt_obs.Trace.with_span "zx.fuse" (fun () -> Rules.fuse_spiders d) in
    let p = Qdt_obs.Trace.with_span "zx.pivot" (fun () -> Rules.pivots d) in
    let f2 = Qdt_obs.Trace.with_span "zx.fuse" (fun () -> Rules.fuse_spiders d) in
    Rules.to_graph_like d;
    Qdt_obs.Trace.emit_end "zx.round";
    Qdt_obs.Metrics.add m_identities i;
    Qdt_obs.Metrics.add m_lcomps l;
    Qdt_obs.Metrics.add m_fusions (f1 + f2);
    Qdt_obs.Metrics.add m_pivots p;
    identities := !identities + i;
    lcomps := !lcomps + l;
    pivs := !pivs + p;
    fusions := !fusions + f1 + f2;
    continue_ := i + l + p > 0
  done;
  {
    fusions = !fusions;
    identities = !identities;
    local_complementations = !lcomps;
    pivots = !pivs;
    rounds = !rounds;
  }

let full_reduce = interior_clifford_simp

let t_count d =
  List.length
    (List.filter (fun v -> not (Phase.is_clifford (Diagram.phase d v))) (Diagram.spiders d))

let clifford_spider_count d =
  List.length
    (List.filter (fun v -> Phase.is_clifford (Diagram.phase d v)) (Diagram.spiders d))

let wire_targets d =
  (* For each input: the vertex at the other end of its wire and whether
     the edge is plain. *)
  let ins = Diagram.inputs d in
  Array.map
    (fun i ->
      match Diagram.neighbors d i with
      | [ (w, (1, 0)) ] -> Some (w, true)
      | [ (w, (0, 1)) ] -> Some (w, false)
      | _ -> None)
    ins

let is_identity_up_to_permutation d =
  if Diagram.spiders d <> [] then None
  else begin
    let outs = Diagram.outputs d in
    let out_port = Hashtbl.create 8 in
    Array.iteri (fun q v -> Hashtbl.replace out_port v q) outs;
    let targets = wire_targets d in
    let n = Array.length targets in
    if Array.length outs <> n then None
    else begin
      let perm = Array.make n (-1) in
      let ok = ref true in
      Array.iteri
        (fun q target ->
          match target with
          | Some (w, true) -> (
              match Hashtbl.find_opt out_port w with
              | Some p -> perm.(q) <- p
              | None -> ok := false)
          | Some (_, false) | None -> ok := false)
        targets;
      if !ok && Array.for_all (fun p -> p >= 0) perm then Some perm else None
    end
  end

let is_identity d =
  match is_identity_up_to_permutation d with
  | Some perm ->
      let ok = ref true in
      Array.iteri (fun q p -> if q <> p then ok := false) perm;
      !ok
  | None -> false
