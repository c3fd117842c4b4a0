(** First-class simulation backends (the architecture the paper's
    complementarity argument asks for): one engine interface
    ({!SESSION}) over the four data structures plus the stabilizer
    formalism, a machine-readable capability record, one admission guard
    every engine shares, and a unified telemetry record so callers — CLI,
    bench harness, portfolio dispatcher, server — can discover what a
    backend can do and what a run cost. *)

(** What a backend can do.  The portfolio dispatcher ({!Backend_auto})
    filters on this before applying its heuristics. *)
type capabilities = {
  full_state : bool;  (** can produce the dense final state *)
  amplitude : bool;  (** can produce a single amplitude *)
  sample : bool;  (** can draw measurement counts *)
  expectation_z : bool;  (** can compute [⟨Z_q⟩] *)
  supports_nonunitary : bool;  (** executes measurements / resets *)
  clifford_only : bool;  (** restricted to the Clifford group *)
  max_qubits : int option;  (** hard qubit limit, [None] = unbounded *)
  dynamic : bool;
      (** executes dynamic circuits (mid-circuit measurement, reset,
          classical control) via the per-shot loop of {!Shot_engine} *)
}

(** The unified run record: every job returns one.  [values] are the
    engine's own cost axes, each named by the engine that measures it —
    [dd.peak_nodes], [dd.final_nodes], [dd.unique_table_size],
    [dd.cnum_table_size], [dd.unique_hit_rate], [dd.compute_hit_rate],
    [dd.gate_hit_rate], [dd.gc_runs], [dd.nodes_collected],
    [dd.peak_live_nodes], [dd.compute_cache_fill]; [mps.max_bond_dim],
    [mps.truncation_error]; [tableau_bytes] — and count this job's work
    only, whatever else the process runs at the same time. *)
type stats = {
  backend : string;  (** backend that actually ran (Auto reports its pick) *)
  wall_s : float;  (** wall-clock seconds (shared clock: {!Qdt_obs.Clock}) *)
  note : string option;  (** Auto: why this backend was chosen *)
  values : (string * float) list;
}

(** Typed unsupported-operation report (replaces the seed's
    [invalid_arg]-raising dispatcher arms). *)
type error = { backend : string; operation : string; reason : string }

type 'a outcome = ('a * stats, error) result

type operation = Full_state | Amplitude | Sample | Expectation_z

val operation_name : operation -> string

(** [supports caps op] — capability query for one operation. *)
val supports : capabilities -> operation -> bool

val error_to_string : error -> string

(** [operation_of_job job] — the capability bucket a job falls in. *)
val operation_of_job : Job.t -> operation

(** [timed ~name ~prefix job f] — run [f], the body of [job] on backend
    [name], and return its result with a stats record holding the wall
    time on the shared monotonic clock and no values.  The run is
    bracketed in a {!Qdt_obs.Trace} span [<prefix>.<operation>] and,
    while metrics are enabled, counted on
    [qdt.backend.runs{backend=<prefix>,operation}]. *)
val timed : name:string -> prefix:string -> Job.t -> (unit -> 'a) -> 'a * stats

(** [backend=… wall=…s] and one [name=value] per value on one line; the
    note, when present, follows on a second line as [choice: …].
    Integral values print exactly. *)
val stats_to_string : stats -> string

(** The record as a JSON object: [backend], [wall_s], [note] when
    present, and every value, where a value named [a.b] nests as
    [{"a": {"b": …}}].  Integral values print exactly. *)
val stats_to_json : stats -> string

(** The dense-output cap every engine shares: a [Full_state] job on more
    qubits is declined by {!admit}.  Arrays and tensor networks cap the
    circuit itself at this width. *)
val max_dense_qubits : int

(** The shot cap every engine shares: {!admit} declines a [Sample] job
    with more shots than this (2^20), or fewer than one. *)
val max_shots : int

(** [admit ~closed ~name ~caps c job] — the shared admission guard every
    engine calls once at the top of [submit], passing its session's
    [closed] flag; no engine declines a job anywhere else.  It
    declines, with a typed error and in this order: any job on a closed
    session; an operation the capability record lacks; a circuit wider
    than [caps.max_qubits]; a [Full_state] job above
    {!max_dense_qubits}; an [Amplitude k] outside [[0, 2^n)]; an
    [Expectation_z] qubit outside [[0, n)]; a [Sample] job with shots
    outside [[1, ]{!max_shots}[]]; classical control on a
    backend without [dynamic]; measurements or resets where the job or
    backend cannot take them; and non-Clifford gates on a
    [clifford_only] backend. *)
val admit :
  closed:bool ->
  name:string ->
  caps:capabilities ->
  Qdt_circuit.Circuit.t ->
  Job.t ->
  (unit, error) result

(** The one engine interface every backend implements: [create]
    allocates the backend's expensive shared state once, [submit] executes
    {!Job.t}s against it (unique tables, compute caches, statevector
    buffers and tableau allocations persist between jobs of one
    session), [close] retires it.  Stats on each submit are per-job
    deltas, not session cumulative totals.  See DESIGN.md, "Sessions
    and jobs". *)
module type SESSION = sig
  val name : string
  val capabilities : capabilities

  type t
  (** One persistent engine.  Not domain-safe: submit from one domain
      at a time (a server serialises jobs per session). *)

  (** [create ()] opens a session. *)
  val create : unit -> t

  (** [submit session c job] executes [job] on circuit [c], or returns
      the typed error {!admit} gives for it (a closed session
      included). *)
  val submit : t -> Qdt_circuit.Circuit.t -> Job.t -> Job.result outcome

  (** [close session] releases the engine; idempotent. *)
  val close : t -> unit
end

type engine = (module SESSION)

(** [run_once engine c job] — one job on a fresh engine: create, submit,
    then close (also when [submit] raises).  Results are bit-identical to
    a cold session's. *)
val run_once : engine -> Qdt_circuit.Circuit.t -> Job.t -> Job.result outcome
