open Qdt_linalg

type node = {
  id : int;
  var : int;
  edges : edge array;
  mutable rc : int;
  mutable stamp : int;
  mutable size : int;
  mutable norm2 : float;
}

and edge = { w_id : int; w : Cx.t; target : target }
and target = Terminal | Node of node

let target_id = function Terminal -> -1 | Node n -> n.id

type cache_telemetry = {
  cache_name : string;
  slots : int;
  fill : int;
  lookups : int;
  hits : int;
  evictions : int;
}

(* ------------------------------------------------------------------ *)
(* Unique table                                                        *)
(* ------------------------------------------------------------------ *)

(* Chained hash table of nodes keyed by the variable plus (weight id,
   child id) per edge, child id -1 for the terminal.  A node is its own
   key, so a lookup allocates nothing and compares only ints. *)
module Unique = struct
  type t = { mutable buckets : node list array; mutable count : int }

  let no_node =
    { id = -1; var = -1; edges = [||]; rc = 0; stamp = 0; size = 0; norm2 = -1.0 }
  let create () = { buckets = Array.make 4096 []; count = 0 }

  let mix h x =
    let h = (h lxor x) * 0x100000001b3 in
    h lxor (h lsr 29)

  let key_hash var edges =
    let h = ref (mix 0x9e3779b1 var) in
    for k = 0 to Array.length edges - 1 do
      let e = Array.unsafe_get edges k in
      h := mix (mix !h e.w_id) (target_id e.target)
    done;
    !h

  let slot buckets h = h land (Array.length buckets - 1)

  let rec same_edges a b k =
    k < 0
    ||
    let x = Array.unsafe_get a k and y = Array.unsafe_get b k in
    x.w_id = y.w_id && target_id x.target = target_id y.target && same_edges a b (k - 1)

  let rec find_in var edges = function
    | [] -> no_node
    | n :: rest ->
        if
          n.var = var
          && Array.length n.edges = Array.length edges
          && same_edges n.edges edges (Array.length edges - 1)
        then n
        else find_in var edges rest

  (* [no_node] when absent; [h] is [key_hash var edges]. *)
  let find t h var edges = find_in var edges (Array.unsafe_get t.buckets (slot t.buckets h))

  let add t h n =
    if t.count >= 2 * Array.length t.buckets then begin
      let buckets = Array.make (2 * Array.length t.buckets) [] in
      Array.iter
        (List.iter (fun n ->
             let i = slot buckets (key_hash n.var n.edges) in
             buckets.(i) <- n :: buckets.(i)))
        t.buckets;
      t.buckets <- buckets
    end;
    let i = slot t.buckets h in
    t.buckets.(i) <- n :: t.buckets.(i);
    t.count <- t.count + 1

  let iter f t = Array.iter (List.iter f) t.buckets

  (* Drop every node failing [keep]; returns how many went. *)
  let filter t keep =
    let before = t.count in
    Array.iteri
      (fun i nodes ->
        t.buckets.(i) <-
          List.filter (fun n -> keep n || (t.count <- t.count - 1; false)) nodes)
      t.buckets;
    before - t.count
end

(* Visit stamps replace a visited set in walks over a diagram ([gc]'s
   mark, a first [node_count], [memory_bytes]): a walk takes a fresh
   stamp and writes it into each node it reaches.  The epoch is
   process-wide because [node_count] takes no manager, and atomic so walks
   in different domains never share a stamp; that suffices because only
   one domain uses a manager, and so its nodes, at a time. *)
let epoch = Atomic.make 0
let fresh_stamp () = 1 + Atomic.fetch_and_add epoch 1

(* ------------------------------------------------------------------ *)
(* Bounded compute caches                                              *)
(* ------------------------------------------------------------------ *)

(* Fixed-size direct-mapped cache: 2^bits slots, a store replaces whatever
   occupies its slot.  Keys are up to three ints (node / weight ids, which
   the manager never reuses); unused key positions are 0.  This keeps
   compute-cache memory O(1) per manager where the previous Hashtbls grew
   without bound. *)
module Ccache = struct
  type 'a slot = Free | Slot of { k1 : int; k2 : int; k3 : int; v : 'a }

  type 'a t = {
    name : string;
    mask : int;
    (* Allocated on first store: a manager that never exercises an
       operation never pays for its cache, which keeps [create] cheap for
       the create-per-run callers (benches, equivalence checks). *)
    mutable slots : 'a slot array;
    mutable lookups : int;
    mutable hits : int;
    mutable fill : int;
    mutable evictions : int;
  }

  let create ~name ~bits =
    let bits = max 1 (min 24 bits) in
    let size = 1 lsl bits in
    { name; mask = size - 1; slots = [||];
      lookups = 0; hits = 0; fill = 0; evictions = 0 }

  let index t k1 k2 k3 =
    let h = (k1 * 0x9e3779b1) lxor (k2 * 0x85ebca77) lxor (k3 * 0xc2b2ae35) in
    (h lxor (h lsr 17)) land t.mask

  (* Process-global compute-cache counters shared by every manager — the
     per-manager tallies above feed [cache_stats]; these feed the metrics
     registry (one flag check each when disabled). *)
  let m_lookups = Qdt_obs.Metrics.counter "dd.cache.lookups"
  let m_hits = Qdt_obs.Metrics.counter "dd.cache.hits"

  let find t k1 k2 k3 =
    t.lookups <- t.lookups + 1;
    Qdt_obs.Metrics.incr m_lookups;
    if Array.length t.slots = 0 then None
    else
      match t.slots.(index t k1 k2 k3) with
      | Slot s when s.k1 = k1 && s.k2 = k2 && s.k3 = k3 ->
          t.hits <- t.hits + 1;
          Qdt_obs.Metrics.incr m_hits;
          Some s.v
      | _ -> None

  let store t k1 k2 k3 v =
    if Array.length t.slots = 0 then t.slots <- Array.make (t.mask + 1) Free;
    let i = index t k1 k2 k3 in
    (match t.slots.(i) with
    | Free -> t.fill <- t.fill + 1
    | Slot _ -> t.evictions <- t.evictions + 1);
    t.slots.(i) <- Slot { k1; k2; k3; v }

  let clear t =
    if t.fill > 0 then begin
      Array.fill t.slots 0 (Array.length t.slots) Free;
      t.fill <- 0
    end

  let telemetry t =
    { cache_name = t.name; slots = t.mask + 1; fill = t.fill;
      lookups = t.lookups; hits = t.hits; evictions = t.evictions }
end

(* ------------------------------------------------------------------ *)
(* Gate-DD cache                                                       *)
(* ------------------------------------------------------------------ *)

(* The eighth cache: instruction DDs keyed by (qubit count, instruction),
   compared structurally, so a warm manager builds each gate DD once
   between collections.  Direct-mapped and sized like [Ccache]; its
   lookups stay out of the process-wide compute-cache counters.  Entries
   are not pinned, so [gc] clears it with the compute caches. *)
module Gcache = struct
  type slot =
    | Free
    | Slot of { qubits : int; instr : Qdt_circuit.Circuit.instruction; dd : edge }

  type t = {
    mask : int;
    mutable slots : slot array;  (* allocated on first store *)
    mutable lookups : int;
    mutable hits : int;
    mutable fill : int;
    mutable evictions : int;
  }

  let create ~bits =
    let bits = max 1 (min 24 bits) in
    { mask = (1 lsl bits) - 1; slots = [||]; lookups = 0; hits = 0; fill = 0; evictions = 0 }

  let index t qubits instr = Unique.mix (Hashtbl.hash instr) qubits land t.mask

  let find_or_build t ~qubits instr build =
    t.lookups <- t.lookups + 1;
    let i = index t qubits instr in
    match if Array.length t.slots = 0 then Free else t.slots.(i) with
    | Slot s when s.qubits = qubits && s.instr = instr ->
        t.hits <- t.hits + 1;
        s.dd
    | _ ->
        let dd = build () in
        if Array.length t.slots = 0 then t.slots <- Array.make (t.mask + 1) Free;
        (match t.slots.(i) with
        | Free -> t.fill <- t.fill + 1
        | Slot _ -> t.evictions <- t.evictions + 1);
        t.slots.(i) <- Slot { qubits; instr; dd };
        dd

  let clear t =
    if t.fill > 0 then begin
      Array.fill t.slots 0 (Array.length t.slots) Free;
      t.fill <- 0
    end

  let telemetry t =
    { cache_name = "gate"; slots = t.mask + 1; fill = t.fill;
      lookups = t.lookups; hits = t.hits; evictions = t.evictions }
end

type t = {
  ctab : Cnum_table.t;
  unique : Unique.t;
  mutable next_id : int;
  (* External pins (from [ref_edge]) on complex ids, so GC keeps the weight
     of a root edge alive in the complex table. *)
  pinned_cnums : (int, int) Hashtbl.t;
  add_cache : edge Ccache.t;
  mul_mv_cache : edge Ccache.t;
  mul_mm_cache : edge Ccache.t;
  adjoint_cache : edge Ccache.t;
  kron_cache : edge Ccache.t;
  inner_cache : Cx.t Ccache.t;
  trace_cache : Cx.t Ccache.t;
  gate_cache : Gcache.t;
  (* GC policy: [gc_threshold] is the configured floor (0 disables
     automatic collection); [gc_limit] is the live-node count that triggers
     the next collection and doubles with the surviving population. *)
  gc_threshold : int;
  mutable gc_limit : int;
  mutable gc_runs : int;
  mutable nodes_collected : int;
  mutable cnums_collected : int;
  mutable peak_nodes : int;
  mutable n_unique_lookups : int;
  mutable n_unique_hits : int;
}

type cache_stats = {
  unique_lookups : int;
  unique_hits : int;
  compute_lookups : int;
  compute_hits : int;
  gc_runs : int;
  nodes_collected : int;
  cnums_collected : int;
  peak_nodes : int;
  live_nodes : int;
  caches : cache_telemetry list;
  gate : cache_telemetry;
}

let default_gc_threshold = ref 16384
let default_cache_bits = ref 12

let create ?eps ?gc_threshold ?cache_bits () =
  let gc_threshold = Option.value gc_threshold ~default:!default_gc_threshold in
  let bits = Option.value cache_bits ~default:!default_cache_bits in
  {
    ctab = Cnum_table.create ?eps ();
    unique = Unique.create ();
    next_id = 0;
    pinned_cnums = Hashtbl.create 64;
    add_cache = Ccache.create ~name:"add" ~bits;
    mul_mv_cache = Ccache.create ~name:"mul-mv" ~bits;
    mul_mm_cache = Ccache.create ~name:"mul-mm" ~bits;
    adjoint_cache = Ccache.create ~name:"adjoint" ~bits;
    kron_cache = Ccache.create ~name:"kron" ~bits;
    inner_cache = Ccache.create ~name:"inner" ~bits;
    trace_cache = Ccache.create ~name:"trace" ~bits;
    gate_cache = Gcache.create ~bits;
    gc_threshold;
    gc_limit = gc_threshold;
    gc_runs = 0;
    nodes_collected = 0;
    cnums_collected = 0;
    peak_nodes = 0;
    n_unique_lookups = 0;
    n_unique_hits = 0;
  }

let cache_stats mgr =
  let caches =
    Ccache.
      [
        telemetry mgr.add_cache;
        telemetry mgr.mul_mv_cache;
        telemetry mgr.mul_mm_cache;
        telemetry mgr.adjoint_cache;
        telemetry mgr.kron_cache;
        telemetry mgr.inner_cache;
        telemetry mgr.trace_cache;
      ]
  in
  let compute_lookups = List.fold_left (fun acc c -> acc + c.lookups) 0 caches in
  let compute_hits = List.fold_left (fun acc c -> acc + c.hits) 0 caches in
  {
    unique_lookups = mgr.n_unique_lookups;
    unique_hits = mgr.n_unique_hits;
    compute_lookups;
    compute_hits;
    gc_runs = mgr.gc_runs;
    nodes_collected = mgr.nodes_collected;
    cnums_collected = mgr.cnums_collected;
    peak_nodes = max mgr.peak_nodes mgr.unique.count;
    live_nodes = mgr.unique.count;
    caches;
    gate = Gcache.telemetry mgr.gate_cache;
  }

(* Per-job deltas for a session-held manager: monotone counters are
   subtracted, level signals (peak/live population, cache fill) keep the
   [after] value. *)
let diff_cache_stats ~before ~after =
  let diff (b : cache_telemetry) (a : cache_telemetry) =
    { a with lookups = a.lookups - b.lookups; hits = a.hits - b.hits;
             evictions = a.evictions - b.evictions }
  in
  {
    unique_lookups = after.unique_lookups - before.unique_lookups;
    unique_hits = after.unique_hits - before.unique_hits;
    compute_lookups = after.compute_lookups - before.compute_lookups;
    compute_hits = after.compute_hits - before.compute_hits;
    gc_runs = after.gc_runs - before.gc_runs;
    nodes_collected = after.nodes_collected - before.nodes_collected;
    cnums_collected = after.cnums_collected - before.cnums_collected;
    peak_nodes = after.peak_nodes;
    live_nodes = after.live_nodes;
    caches = List.map2 diff before.caches after.caches;
    gate = diff before.gate after.gate;
  }

let canonical mgr z = Cnum_table.canonical mgr.ctab z

let terminal mgr z =
  let w_id, w = canonical mgr z in
  { w_id; w; target = Terminal }

let zero_edge _mgr = { w_id = Cnum_table.zero_id; w = Cx.zero; target = Terminal }
let one_edge _mgr = { w_id = Cnum_table.one_id; w = Cx.one; target = Terminal }
let is_zero e = e.w_id = Cnum_table.zero_id

let edge_equal a b = a.w_id = b.w_id && target_id a.target = target_id b.target

(* ------------------------------------------------------------------ *)
(* Reference counting and garbage collection                           *)
(* ------------------------------------------------------------------ *)

(* The protocol: an edge a client keeps across a potential collection
   point must be pinned with [ref_edge] and released with [unref_edge].
   The count lives on the target node; the edge's own weight id is pinned
   separately so the complex-table sweep keeps it.  Intermediate edges
   local to one arithmetic call need no pinning: [gc] only runs from
   [maybe_gc], which clients call at operation boundaries. *)

let ref_edge mgr e =
  (match e.target with Node n -> n.rc <- n.rc + 1 | Terminal -> ());
  Hashtbl.replace mgr.pinned_cnums e.w_id
    (1 + Option.value ~default:0 (Hashtbl.find_opt mgr.pinned_cnums e.w_id))

let unref_edge mgr e =
  (match e.target with
  | Node n -> if n.rc > 0 then n.rc <- n.rc - 1
  | Terminal -> ());
  match Hashtbl.find_opt mgr.pinned_cnums e.w_id with
  | Some 1 -> Hashtbl.remove mgr.pinned_cnums e.w_id
  | Some c -> Hashtbl.replace mgr.pinned_cnums e.w_id (c - 1)
  | None -> ()

let clear_caches mgr =
  Ccache.clear mgr.add_cache;
  Ccache.clear mgr.mul_mv_cache;
  Ccache.clear mgr.mul_mm_cache;
  Ccache.clear mgr.adjoint_cache;
  Ccache.clear mgr.kron_cache;
  Ccache.clear mgr.inner_cache;
  Ccache.clear mgr.trace_cache;
  Gcache.clear mgr.gate_cache

let gate_dd mgr ~num_qubits instr build =
  Gcache.find_or_build mgr.gate_cache ~qubits:num_qubits instr build

(* Observability: instruments bound once at module init; recording is a
   single flag check when disabled. *)
let m_gc_runs = Qdt_obs.Metrics.counter "dd.gc.runs"
let m_gc_collected = Qdt_obs.Metrics.counter "dd.gc.nodes_collected"
let m_gc_pause = Qdt_obs.Metrics.histogram "dd.gc.pause_ns"
let m_live_nodes = Qdt_obs.Metrics.gauge "dd.live_nodes"

let gc (mgr : t) =
  Qdt_obs.Trace.emit_begin "dd.gc";
  let t0 = Qdt_obs.Clock.now_ns () in
  mgr.peak_nodes <- max mgr.peak_nodes mgr.unique.count;
  (* Mark: everything reachable from a pinned node stays, as do the
     complex ids those nodes' edges (and pinned root edges) use. *)
  let stamp = fresh_stamp () in
  let live_cnums = Hashtbl.create 256 in
  Hashtbl.replace live_cnums Cnum_table.zero_id ();
  Hashtbl.replace live_cnums Cnum_table.one_id ();
  Hashtbl.iter (fun id _ -> Hashtbl.replace live_cnums id ()) mgr.pinned_cnums;
  let rec mark n =
    if n.stamp <> stamp then begin
      n.stamp <- stamp;
      Array.iter
        (fun e ->
          Hashtbl.replace live_cnums e.w_id ();
          match e.target with Node c -> mark c | Terminal -> ())
        n.edges
    end
  in
  Unique.iter (fun n -> if n.rc > 0 then mark n) mgr.unique;
  (* Sweep the unique table, then the complex table entries only dead
     nodes referenced.  Node and complex ids are never reused, so an
     unpinned edge a client still holds stays numerically valid — it just
     loses sharing with future nodes. *)
  let collected = Unique.filter mgr.unique (fun n -> n.stamp = stamp) in
  let swept = Cnum_table.sweep mgr.ctab ~live:(Hashtbl.mem live_cnums) in
  (* Cached results may reference swept nodes; drop them wholesale. *)
  clear_caches mgr;
  mgr.gc_runs <- mgr.gc_runs + 1;
  mgr.nodes_collected <- mgr.nodes_collected + collected;
  mgr.cnums_collected <- mgr.cnums_collected + swept;
  mgr.gc_limit <- max mgr.gc_threshold (2 * mgr.unique.count);
  Qdt_obs.Metrics.incr m_gc_runs;
  Qdt_obs.Metrics.add m_gc_collected collected;
  Qdt_obs.Metrics.observe m_gc_pause (Qdt_obs.Clock.elapsed_ns t0);
  Qdt_obs.Metrics.set m_live_nodes (float_of_int mgr.unique.count);
  Qdt_obs.Trace.emit_end "dd.gc";
  collected

let maybe_gc mgr =
  if mgr.gc_threshold > 0 && mgr.unique.count > mgr.gc_limit then ignore (gc mgr)

let hashcons mgr ~var edges =
  mgr.n_unique_lookups <- mgr.n_unique_lookups + 1;
  let h = Unique.key_hash var edges in
  let n = Unique.find mgr.unique h var edges in
  if n != Unique.no_node then begin
    mgr.n_unique_hits <- mgr.n_unique_hits + 1;
    n
  end
  else begin
    let n = { id = mgr.next_id; var; edges; rc = 0; stamp = 0; size = 0; norm2 = -1.0 } in
    mgr.next_id <- n.id + 1;
    Unique.add mgr.unique h n;
    if mgr.unique.count > mgr.peak_nodes then mgr.peak_nodes <- mgr.unique.count;
    n
  end

let make_node mgr ~var edges =
  let arity = Array.length edges in
  if arity <> 2 && arity <> 4 then invalid_arg "Pkg.make_node: arity must be 2 or 4";
  (* Pivot: the largest-magnitude weight (first among eps-ties) is pulled
     out as the incoming edge weight, making the node canonical. *)
  let eps = Cnum_table.eps mgr.ctab in
  let pivot = ref (-1) and best = ref 0.0 in
  Array.iteri
    (fun k e ->
      if not (is_zero e) then begin
        let m = Cx.norm e.w in
        if m > !best +. eps then begin
          best := m;
          pivot := k
        end
      end)
    edges;
  if !pivot < 0 then zero_edge mgr
  else begin
    let top = edges.(!pivot).w in
    let inv = Cx.inv top in
    let normalised =
      Array.mapi
        (fun k e ->
          if is_zero e then zero_edge mgr
          else if k = !pivot then { e with w_id = Cnum_table.one_id; w = Cx.one }
          else
            let w_id, w = canonical mgr (Cx.mul e.w inv) in
            { e with w_id; w })
        edges
    in
    let n = hashcons mgr ~var normalised in
    let w_id, w = canonical mgr top in
    { w_id; w; target = Node n }
  end

let scale mgr c e =
  if is_zero e then e
  else
    let w_id, w = canonical mgr (Cx.mul c e.w) in
    if w_id = Cnum_table.zero_id then zero_edge mgr else { e with w_id; w }

(* ------------------------------------------------------------------ *)
(* Addition                                                            *)
(* ------------------------------------------------------------------ *)

let rec add mgr e1 e2 =
  if is_zero e1 then e2
  else if is_zero e2 then e1
  else
    match (e1.target, e2.target) with
    | Terminal, Terminal -> terminal mgr (Cx.add e1.w e2.w)
    | Node n1, Node n2 ->
        assert (n1.var = n2.var && Array.length n1.edges = Array.length n2.edges);
        (* Factor out w1: e1 + e2 = w1 · (n1 + (w2/w1)·n2). *)
        let ratio_id, ratio = canonical mgr (Cx.div e2.w e1.w) in
        let body =
          match Ccache.find mgr.add_cache n1.id ratio_id n2.id with
          | Some cached -> cached
          | None ->
              let children =
                Array.init (Array.length n1.edges) (fun k ->
                    add mgr n1.edges.(k) (scale mgr ratio n2.edges.(k)))
              in
              let result = make_node mgr ~var:n1.var children in
              Ccache.store mgr.add_cache n1.id ratio_id n2.id result;
              result
        in
        scale mgr e1.w body
    | Terminal, Node _ | Node _, Terminal ->
        invalid_arg "Pkg.add: mixing scalar and node edges"

(* ------------------------------------------------------------------ *)
(* Multiplication                                                      *)
(* ------------------------------------------------------------------ *)

let rec mul_mv mgr m v =
  if is_zero m || is_zero v then zero_edge mgr
  else
    match (m.target, v.target) with
    | Terminal, Terminal -> terminal mgr (Cx.mul m.w v.w)
    | Node mn, Node vn ->
        assert (mn.var = vn.var && Array.length mn.edges = 4 && Array.length vn.edges = 2);
        let body =
          match Ccache.find mgr.mul_mv_cache mn.id vn.id 0 with
          | Some cached -> cached
          | None ->
              let row r =
                add mgr
                  (mul_mv mgr mn.edges.(2 * r) vn.edges.(0))
                  (mul_mv mgr mn.edges.((2 * r) + 1) vn.edges.(1))
              in
              let result = make_node mgr ~var:mn.var [| row 0; row 1 |] in
              Ccache.store mgr.mul_mv_cache mn.id vn.id 0 result;
              result
        in
        scale mgr (Cx.mul m.w v.w) body
    | Terminal, Node _ | Node _, Terminal ->
        invalid_arg "Pkg.mul_mv: level mismatch"

let rec mul_mm mgr a b =
  if is_zero a || is_zero b then zero_edge mgr
  else
    match (a.target, b.target) with
    | Terminal, Terminal -> terminal mgr (Cx.mul a.w b.w)
    | Node an, Node bn ->
        assert (an.var = bn.var && Array.length an.edges = 4 && Array.length bn.edges = 4);
        let body =
          match Ccache.find mgr.mul_mm_cache an.id bn.id 0 with
          | Some cached -> cached
          | None ->
              let entry r c =
                add mgr
                  (mul_mm mgr an.edges.(2 * r) bn.edges.(c))
                  (mul_mm mgr an.edges.((2 * r) + 1) bn.edges.(2 + c))
              in
              let result =
                make_node mgr ~var:an.var [| entry 0 0; entry 0 1; entry 1 0; entry 1 1 |]
              in
              Ccache.store mgr.mul_mm_cache an.id bn.id 0 result;
              result
        in
        scale mgr (Cx.mul a.w b.w) body
    | Terminal, Node _ | Node _, Terminal ->
        invalid_arg "Pkg.mul_mm: level mismatch"

let rec adjoint mgr m =
  if is_zero m then m
  else
    match m.target with
    | Terminal -> terminal mgr (Cx.conj m.w)
    | Node n ->
        assert (Array.length n.edges = 4);
        let body =
          match Ccache.find mgr.adjoint_cache n.id 0 0 with
          | Some cached -> cached
          | None ->
              let result =
                make_node mgr ~var:n.var
                  [|
                    adjoint mgr n.edges.(0);
                    adjoint mgr n.edges.(2);
                    adjoint mgr n.edges.(1);
                    adjoint mgr n.edges.(3);
                  |]
              in
              Ccache.store mgr.adjoint_cache n.id 0 0 result;
              result
        in
        scale mgr (Cx.conj m.w) body

let rec kron mgr ~lower_qubits upper lower =
  if is_zero upper || is_zero lower then zero_edge mgr
  else
    match upper.target with
    | Terminal -> scale mgr upper.w lower
    | Node n ->
        let body =
          match Ccache.find mgr.kron_cache n.id (target_id lower.target) lower.w_id with
          | Some cached -> cached
          | None ->
              let children =
                Array.map (fun e -> kron mgr ~lower_qubits e lower) n.edges
              in
              let result = make_node mgr ~var:(n.var + lower_qubits) children in
              Ccache.store mgr.kron_cache n.id (target_id lower.target) lower.w_id result;
              result
        in
        scale mgr upper.w body

let rec inner mgr a b =
  if is_zero a || is_zero b then Cx.zero
  else
    match (a.target, b.target) with
    | Terminal, Terminal -> Cx.mul (Cx.conj a.w) b.w
    | Node an, Node bn ->
        let body =
          match Ccache.find mgr.inner_cache an.id bn.id 0 with
          | Some cached -> cached
          | None ->
              let acc = ref Cx.zero in
              for k = 0 to Array.length an.edges - 1 do
                acc := Cx.add !acc (inner mgr an.edges.(k) bn.edges.(k))
              done;
              Ccache.store mgr.inner_cache an.id bn.id 0 !acc;
              !acc
        in
        Cx.mul (Cx.mul (Cx.conj a.w) b.w) body
    | Terminal, Node _ | Node _, Terminal -> invalid_arg "Pkg.inner: level mismatch"

let rec trace mgr m =
  if is_zero m then Cx.zero
  else
    match m.target with
    | Terminal -> m.w
    | Node n ->
        assert (Array.length n.edges = 4);
        let body =
          match Ccache.find mgr.trace_cache n.id 0 0 with
          | Some cached -> cached
          | None ->
              let v = Cx.add (trace mgr n.edges.(0)) (trace mgr n.edges.(3)) in
              Ccache.store mgr.trace_cache n.id 0 0 v;
              v
        in
        Cx.mul m.w body

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

(* Fold [f] over the nodes reachable from [target] that do not yet carry
   [stamp], stamping each as it is visited. *)
let rec fold_nodes stamp f acc = function
  | Terminal -> acc
  | Node n ->
      if n.stamp = stamp then acc
      else begin
        n.stamp <- stamp;
        let acc = ref (f acc n) in
        for k = 0 to Array.length n.edges - 1 do
          acc := fold_nodes stamp f !acc n.edges.(k).target
        done;
        !acc
      end

(* Memoised on the node: a node's edges, and so its reachable set and
   subtree norm, never change after [hashcons] made it, and ids are never
   reused, so a stored value needs no invalidation, not even at [gc]. *)
let node_count e =
  match e.target with
  | Terminal -> 0
  | Node n ->
      if n.size = 0 then
        n.size <- fold_nodes (fresh_stamp ()) (fun count _ -> count + 1) 0 e.target;
      n.size

let rec subtree_norm2 e =
  match e.target with
  | Terminal -> 1.0
  | Node n ->
      if n.norm2 < 0.0 then begin
        let acc = ref 0.0 in
        for k = 0 to Array.length n.edges - 1 do
          let c = n.edges.(k) in
          if not (is_zero c) then acc := !acc +. (Cx.norm2 c.w *. subtree_norm2 c)
        done;
        n.norm2 <- !acc
      end;
      n.norm2

(* var + id (8 bytes each) plus per edge: weight (16) + id (8) + pointer (8). *)
let memory_bytes e =
  fold_nodes (fresh_stamp ())
    (fun bytes n -> bytes + 16 + (32 * Array.length n.edges))
    0 e.target

let amplitude _mgr e k =
  let rec walk e =
    if is_zero e then Cx.zero
    else
      match e.target with
      | Terminal -> e.w
      | Node n ->
          let bit = (k lsr n.var) land 1 in
          Cx.mul e.w (walk n.edges.(bit))
  in
  walk e

let matrix_entry _mgr e ~row ~col =
  let rec walk e =
    if is_zero e then Cx.zero
    else
      match e.target with
      | Terminal -> e.w
      | Node n ->
          let r = (row lsr n.var) land 1 and c = (col lsr n.var) land 1 in
          Cx.mul e.w (walk n.edges.((2 * r) + c))
  in
  walk e

let to_vec mgr e ~num_qubits =
  Vec.init (1 lsl num_qubits) (fun k -> amplitude mgr e k)

let to_mat mgr e ~num_qubits =
  let dim = 1 lsl num_qubits in
  Mat.init dim dim (fun row col -> matrix_entry mgr e ~row ~col)

let unique_table_size mgr = mgr.unique.count
let cnum_table_size mgr = Cnum_table.size mgr.ctab
let cnum_live_entries mgr = Cnum_table.live_entries mgr.ctab
let peak_unique_table_size (mgr : t) = max mgr.peak_nodes mgr.unique.count
let refcount e = match e.target with Terminal -> 0 | Node n -> n.rc
