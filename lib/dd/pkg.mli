(** The decision-diagram package (Section III of the paper).

    QMDD-style diagrams: a quantum state over qubits [0..n-1] is a chain of
    binary nodes (variable = qubit index, qubit [n-1] on top), a quantum
    operation a chain of 4-ary nodes; equal sub-diagrams are shared through
    a unique table and common amplitude factors are pulled into edge
    weights (canonicalised through {!Cnum_table}).  Diagrams are
    quasi-reduced: every path visits every variable, as in the QMDD
    literature (refs [28], [29]).

    Tables, caches and counters live in a manager value [t].  The
    process-global state is the {!create} defaults
    ({!default_gc_threshold}, {!default_cache_bits}), which front ends set
    before creating managers, and the atomic visit-stamp epoch.

    {2 Memory management}

    The manager reclaims memory in two ways (see DESIGN.md, "DD memory
    management"):

    - {b Reference-counted mark-and-sweep GC} over the unique table.
      Clients pin the edges they keep across operations with {!ref_edge}
      (released with {!unref_edge}); {!gc} marks everything reachable from
      a pinned node and sweeps the rest — including the {!Cnum_table}
      entries only dead nodes referenced.  {!maybe_gc} runs a collection
      automatically once the live-node count passes an adaptive threshold
      (configured floor [gc_threshold]; doubles with the surviving
      population), and is called by [Sim], [Noise_sim] and [Build] at
      instruction boundaries.  Node and complex ids are never reused, so
      an unpinned edge held across a collection stays numerically valid —
      it only loses sharing with nodes built later.

    - {b Bounded caches}: the seven operation caches (add, mat-vec,
      mat-mat, adjoint, kron, inner, trace) and the gate-DD cache
      ({!gate_dd}) are fixed-size direct-mapped arrays of [2^cache_bits]
      slots with replace-on-collision, so cache memory is O(1) per
      manager; they are invalidated wholesale on GC.

    A manager, and every node it made, is used by one domain at a time:
    diagram walks ({!gc}'s mark, {!node_count}, {!memory_bytes}) write a
    visit stamp into the nodes they reach, and {!node_count} and
    {!subtree_norm2} store their results on the nodes. *)

type node = private {
  id : int;
  var : int;
  edges : edge array;
  mutable rc : int;
  mutable stamp : int;
  mutable size : int;
  mutable norm2 : float;
}
(** [edges] has length 2 (vector node) or 4 (matrix node, row-major:
    indices [2r + c]).  [rc] is the external reference count maintained by
    {!ref_edge}/{!unref_edge}; [stamp] is the last walk that visited the
    node.  [size] and [norm2] memoise {!node_count} and {!subtree_norm2}
    of the node: [size] is 0 and [norm2] negative until first computed.
    A node's edges never change after it is made and ids are never
    reused, so both stay valid for the node's lifetime, across {!gc}
    too.  All four are read-only outside the package. *)

and edge = { w_id : int; w : Qdt_linalg.Cx.t; target : target }
and target = Terminal | Node of node

type t
(** Manager: unique tables, the complex table and the compute caches. *)

(** Defaults used by {!create} when the corresponding argument is absent,
    settable by front ends (the CLI's [--dd-gc-threshold] and
    [--dd-cache-bits] flags write here).  [default_gc_threshold = 16384]
    live nodes ([0] disables automatic GC); [default_cache_bits = 12]
    (4096 slots per compute cache). *)
val default_gc_threshold : int ref

val default_cache_bits : int ref

(** [create ?eps ?gc_threshold ?cache_bits ()] — [gc_threshold] is the
    live-node floor that arms automatic collection (0 disables it);
    [cache_bits] sizes every compute cache and the gate-DD cache at
    [2^cache_bits] slots (clamped to [1..24]), allocated on first
    store. *)
val create : ?eps:float -> ?gc_threshold:int -> ?cache_bits:int -> unit -> t

(** {1 Edges} *)

(** [terminal mgr w] is a terminal edge with canonical weight [w]. *)
val terminal : t -> Qdt_linalg.Cx.t -> edge

val zero_edge : t -> edge
val one_edge : t -> edge
val is_zero : edge -> bool

(** [edge_equal a b] — physical equality of canonical edges. *)
val edge_equal : edge -> edge -> bool

(** [make_node mgr ~var edges] normalises (largest-magnitude weight pulled
    up) and hash-conses; returns the zero edge when all children are zero.
    [edges] must have length 2 or 4. *)
val make_node : t -> var:int -> edge array -> edge

(** [scale mgr c e] multiplies the edge weight by [c]. *)
val scale : t -> Qdt_linalg.Cx.t -> edge -> edge

(** {1 Reference counting and garbage collection} *)

(** [ref_edge mgr e] pins [e]: increments the target node's reference
    count and keeps the edge weight alive in the complex table across
    collections.  Every [ref_edge] must be balanced by {!unref_edge}. *)
val ref_edge : t -> edge -> unit

val unref_edge : t -> edge -> unit

(** [gc mgr] — mark-and-sweep collection: marks every node reachable from
    a node with a positive reference count, sweeps the rest from the
    unique table together with the complex-table entries only they used,
    and invalidates the compute caches.  Returns the number of nodes
    collected.  Safe at any operation boundary; edges currently pinned
    (and their sub-diagrams) are never touched. *)
val gc : t -> int

(** [maybe_gc mgr] — run {!gc} if automatic collection is enabled and the
    live-node count exceeds the adaptive threshold. *)
val maybe_gc : t -> unit

(** [refcount e] — current external reference count of the target node
    (0 for terminal edges). *)
val refcount : edge -> int

(** {1 Arithmetic} — all results canonical and cached. *)

(** [add mgr a b] — works for vector and matrix DDs alike. *)
val add : t -> edge -> edge -> edge

(** [mul_mv mgr m v] — matrix-vector product. *)
val mul_mv : t -> edge -> edge -> edge

(** [mul_mm mgr a b] — matrix-matrix product [a·b]. *)
val mul_mm : t -> edge -> edge -> edge

(** [adjoint mgr m] — conjugate transpose of a matrix DD. *)
val adjoint : t -> edge -> edge

(** [kron mgr ~lower_qubits upper lower] — [upper ⊗ lower]; [lower] spans
    [lower_qubits] qubits, [upper]'s variables are shifted above them.
    Both edges must be of the same kind (vector or matrix; for matrix DDs
    [lower_qubits] is the qubit count, not the node count). *)
val kron : t -> lower_qubits:int -> edge -> edge -> edge

(** [inner mgr a b] is [⟨a|b⟩] of two vector DDs. *)
val inner : t -> edge -> edge -> Qdt_linalg.Cx.t

(** [trace mgr m] is the trace of a matrix DD. *)
val trace : t -> edge -> Qdt_linalg.Cx.t

(** [gate_dd mgr ~num_qubits instr build] — the gate-DD cache: the DD
    stored for [(num_qubits, instr)] (compared structurally) since the
    last collection, else [build ()], which is stored.  Entries are not
    pinned; {!gc} clears the cache with the compute caches. *)
val gate_dd :
  t -> num_qubits:int -> Qdt_circuit.Circuit.instruction -> (unit -> edge) -> edge

(** {1 Inspection} *)

(** [node_count e] — number of distinct nodes reachable from [e]
    (terminals excluded).  The first count from a node walks the diagram,
    marking visited nodes with a fresh stamp, and stores the result in
    the node's [size]; later counts from it read [size] and walk nothing.
    Allocates nothing. *)
val node_count : edge -> int

(** [subtree_norm2 e] — squared norm of the sub-diagram [e] points to,
    without [e]'s own weight: 1 for the terminal, and for a node
    [Σ_k |w_k|² · subtree_norm2 child_k] over its nonzero edges, summed
    in edge order.  Each node's value is computed once and stored in its
    [norm2]; [Sim.sample] and [Approx.prune] read it. *)
val subtree_norm2 : edge -> float

(** [memory_bytes e] — approximate heap footprint of the shared diagram,
    for the E5 experiment (per node: var + id + per-edge weight/pointer). *)
val memory_bytes : edge -> int

(** [amplitude mgr e k] — amplitude of basis state [k] in a vector DD. *)
val amplitude : t -> edge -> int -> Qdt_linalg.Cx.t

(** [matrix_entry mgr e ~row ~col] — entry of a matrix DD. *)
val matrix_entry : t -> edge -> row:int -> col:int -> Qdt_linalg.Cx.t

(** [to_vec mgr e ~num_qubits] — densify a vector DD (small [n] only). *)
val to_vec : t -> edge -> num_qubits:int -> Qdt_linalg.Vec.t

(** [to_mat mgr e ~num_qubits] — densify a matrix DD (small [n] only). *)
val to_mat : t -> edge -> num_qubits:int -> Qdt_linalg.Mat.t

(** Statistics of the manager itself. *)
val unique_table_size : t -> int

val cnum_table_size : t -> int

(** Complex-table entries currently stored (ids minus swept entries). *)
val cnum_live_entries : t -> int

(** Largest unique-table population seen, including dead nodes between
    collections — the bounded-memory signal of experiment E16. *)
val peak_unique_table_size : t -> int

(** Per-cache telemetry of one bounded cache. *)
type cache_telemetry = {
  cache_name : string;
  slots : int;  (** capacity (2^cache_bits) *)
  fill : int;  (** occupied slots *)
  lookups : int;
  hits : int;
  evictions : int;  (** stores that replaced a colliding entry *)
}

type cache_stats = {
  unique_lookups : int;  (** hash-cons attempts (node constructions) *)
  unique_hits : int;  (** attempts answered by an existing node *)
  compute_lookups : int;  (** lookups across all operation caches *)
  compute_hits : int;  (** operation-cache hits *)
  gc_runs : int;  (** collections since [create] *)
  nodes_collected : int;  (** unique-table entries swept, cumulative *)
  cnums_collected : int;  (** complex-table entries swept, cumulative *)
  peak_nodes : int;  (** peak unique-table population *)
  live_nodes : int;  (** current unique-table population *)
  caches : cache_telemetry list;  (** one record per compute cache *)
  gate : cache_telemetry;  (** the gate-DD cache ({!gate_dd}) *)
}

(** [cache_stats mgr] — cumulative unique-table, compute-cache, gate-cache
    and GC counters since [create]; hit rates are the backend-telemetry
    signal for how much sharing/memoisation the workload exposes. *)
val cache_stats : t -> cache_stats

(** [diff_cache_stats ~before ~after] — the counter deltas between two
    {!cache_stats} snapshots of the same manager, for per-job telemetry
    on a long-lived session package.  Monotone counters (lookups, hits,
    GC runs, sweep totals, evictions) are subtracted; level signals
    ([peak_nodes], [live_nodes], cache [fill]) keep [after]'s value. *)
val diff_cache_stats : before:cache_stats -> after:cache_stats -> cache_stats
