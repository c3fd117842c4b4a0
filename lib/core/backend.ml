(* First-class backend abstraction: the engine interface every simulation
   backend implements, the capability record the portfolio dispatcher
   queries, the admission guard every engine shares, and the unified
   run-telemetry (stats) record every job returns.  See DESIGN.md,
   "Backend layer". *)

type capabilities = {
  full_state : bool;
  amplitude : bool;
  sample : bool;
  expectation_z : bool;
  supports_nonunitary : bool;
  clifford_only : bool;
  max_qubits : int option;
  dynamic : bool;
}

type dd_stats = {
  peak_nodes : int;
  final_nodes : int;
  unique_table_size : int;
  cnum_table_size : int;
  unique_hit_rate : float;
  compute_hit_rate : float;
  (* Memory-management telemetry (PR 2): collections run, unique-table
     entries reclaimed, and the peak unique-table population (live + dead
     between collections) — the bounded-memory signal. *)
  gc_runs : int;
  nodes_collected : int;
  peak_live_nodes : int;
  compute_cache_fill : float;  (* occupied fraction across bounded caches *)
}

type mps_stats = { max_bond_dim : int; truncation_error : float }

(* OCaml-heap telemetry captured around each run (Gc.quick_stat deltas),
   so memory claims are measured rather than inferred from data-structure
   byte counts. *)
type heap_stats = {
  minor_words : float;
  major_words : float;
  top_heap_words : int;
}

type stats = {
  backend : string;
  wall_s : float;
  dd : dd_stats option;
  mps : mps_stats option;
  tableau_bytes : int option;
  heap : heap_stats option;
  metrics : (string * float) list;
  note : string option;
}

type error = { backend : string; operation : string; reason : string }
type 'a outcome = ('a * stats, error) result

type operation = Full_state | Amplitude | Sample | Expectation_z

let operation_name = function
  | Full_state -> "simulate"
  | Amplitude -> "amplitude"
  | Sample -> "sample"
  | Expectation_z -> "expectation-z"

let supports caps = function
  | Full_state -> caps.full_state
  | Amplitude -> caps.amplitude
  | Sample -> caps.sample
  | Expectation_z -> caps.expectation_z

let operation_of_job : Job.t -> operation = function
  | Job.Full_state -> Full_state
  | Job.Amplitude _ -> Amplitude
  | Job.Sample _ -> Sample
  | Job.Expectation_z _ -> Expectation_z

let unsupported ~backend ~operation reason =
  Error { backend; operation = operation_name operation; reason }

let error_to_string e =
  Printf.sprintf "backend %s does not support %s: %s" e.backend e.operation e.reason

(* Everything [timed] observed about one run: wall clock (via the shared
   monotonic clock), heap activity, and — when metrics are enabled — the
   change in every registered instrument over the run. *)
type measure = {
  wall_s : float;
  heap : heap_stats;
  metrics : (string * float) list;
}

let base_stats ?note name (m : measure) =
  {
    backend = name;
    wall_s = m.wall_s;
    dd = None;
    mps = None;
    tableau_bytes = None;
    heap = Some m.heap;
    metrics = m.metrics;
    note;
  }

let w_heap = Qdt_obs.Watermark.watermark "heap.peak_heap_words"

(* Session labels for the per-session dimension on [qdt.backend.runs].
   Labels must stay low-cardinality (the metrics registry hard-caps series
   per base name), so only the first [max_labeled_sessions] sessions of a
   process get their own value; the rest share "overflow".  One-shot
   [run_once] calls carry no session label at all, keeping their series
   identical to the pre-session layer. *)
let session_seq = Atomic.make 0
let max_labeled_sessions = 32

let fresh_session_label () =
  let k = 1 + Atomic.fetch_and_add session_seq 1 in
  if k <= max_labeled_sessions then Printf.sprintf "s%d" k else "overflow"

(* Every adapter's span is "<backend>.<operation>" — reuse it as the label
   pair of a run counter, so runs per backend and operation are queryable
   dimensions.  The label set is closed (5 backends × 4 operations, plus a
   bounded session dimension), well under the registry's cardinality cap;
   registration happens once per distinct label set thanks to the
   registry's get-or-create semantics. *)
let run_counter ?session span =
  let session_label =
    match session with None -> [] | Some s -> [ ("session", s) ]
  in
  match String.index_opt span '.' with
  | Some i ->
      let backend = String.sub span 0 i
      and operation = String.sub span (i + 1) (String.length span - i - 1) in
      Qdt_obs.Metrics.counter_with
        ~labels:([ ("backend", backend); ("operation", operation) ] @ session_label)
        "qdt.backend.runs"
  | None ->
      Qdt_obs.Metrics.counter_with
        ~labels:(("span", span) :: session_label)
        "qdt.backend.runs"

let timed ?span ?session f =
  let run () =
    let g0 = Gc.quick_stat () in
    let t0 = Qdt_obs.Clock.now_ns () in
    let result = f () in
    let elapsed = Qdt_obs.Clock.elapsed_ns t0 in
    let g1 = Gc.quick_stat () in
    (result, elapsed, g0, g1)
  in
  let before =
    if Qdt_obs.Metrics.enabled () then Some (Qdt_obs.Metrics.snapshot ()) else None
  in
  (match span with
  | Some name when Qdt_obs.Metrics.enabled () ->
      Qdt_obs.Metrics.incr (run_counter ?session name)
  | _ -> ());
  let result, elapsed, g0, g1 =
    match span with
    | Some name -> Qdt_obs.Trace.with_span name run
    | None -> run ()
  in
  Qdt_obs.Watermark.observe_int w_heap g1.Gc.heap_words;
  let metrics =
    match before with
    | None -> []
    | Some before ->
        Qdt_obs.Metrics.flatten
          (Qdt_obs.Metrics.diff ~before ~after:(Qdt_obs.Metrics.snapshot ()))
  in
  ( result,
    {
      wall_s = Qdt_obs.Clock.ns_to_s elapsed;
      heap =
        {
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          top_heap_words = g1.Gc.top_heap_words;
        };
      metrics;
    } )

let stats_to_string (s : stats) =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "backend=%s wall=%.6fs" s.backend s.wall_s);
  (match s.dd with
  | Some d ->
      Buffer.add_string b
        (Printf.sprintf
           " dd{peak-nodes=%d final-nodes=%d unique-table=%d cnum-table=%d \
            unique-hit=%.1f%% cache-hit=%.1f%% cache-fill=%.1f%% gc-runs=%d \
            collected=%d peak-live=%d}"
           d.peak_nodes d.final_nodes d.unique_table_size d.cnum_table_size
           (100.0 *. d.unique_hit_rate)
           (100.0 *. d.compute_hit_rate)
           (100.0 *. d.compute_cache_fill)
           d.gc_runs d.nodes_collected d.peak_live_nodes)
  | None -> ());
  (match s.mps with
  | Some m ->
      Buffer.add_string b
        (Printf.sprintf " mps{max-bond=%d trunc-err=%.3e}" m.max_bond_dim
           m.truncation_error)
  | None -> ());
  (match s.tableau_bytes with
  | Some bytes -> Buffer.add_string b (Printf.sprintf " tableau{bytes=%d}" bytes)
  | None -> ());
  (match s.heap with
  | Some h ->
      Buffer.add_string b
        (Printf.sprintf " heap{minor-mw=%.3f major-mw=%.3f top-heap-mw=%.3f}"
           (h.minor_words /. 1e6) (h.major_words /. 1e6)
           (float_of_int h.top_heap_words /. 1e6))
  | None -> ());
  (match s.metrics with
  | [] -> ()
  | metrics ->
      Buffer.add_string b "\nmetrics:";
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%g" k v))
        metrics);
  (match s.note with
  | Some note -> Buffer.add_string b (Printf.sprintf "\nchoice: %s" note)
  | None -> ());
  Buffer.contents b

let pp_stats ppf s = Format.pp_print_string ppf (stats_to_string s)

(* The one dense-output cap every engine shares: a [Full_state] job
   materialises 2^n amplitudes of 16 bytes each, so 24 qubits is 256 MiB. *)
let max_dense_qubits = 24

(* The shared admission guard, called once at the top of every engine's
   [submit]: operation capability, qubit-count limit, the dense-output
   cap, job parameters inside the circuit, and measurement/reset
   handling.  [Full_state] and [Amplitude] always require a unitary
   circuit (a collapsed state is not "the" final state);
   [Sample]/[Expectation_z] admit measurements exactly when the backend
   executes them ([supports_nonunitary]). *)
let admit ~name ~caps c job =
  let operation = operation_of_job job in
  let decline reason = unsupported ~backend:name ~operation reason in
  if not (supports caps operation) then decline "operation not provided by this backend"
  else
    let num_qubits = Qdt_circuit.Circuit.num_qubits c in
    match (caps.max_qubits, job) with
    | Some m, _ when num_qubits > m ->
        decline (Printf.sprintf "circuit has %d qubits, backend limit is %d" num_qubits m)
    | _, Job.Full_state when num_qubits > max_dense_qubits ->
        decline
          (Printf.sprintf "a dense state of %d qubits exceeds the %d-qubit limit"
             num_qubits max_dense_qubits)
    (* From 62 qubits on, [1 lsl n] overflows and every non-negative
       int is a valid index. *)
    | _, Job.Amplitude k when k < 0 || (num_qubits < 62 && k >= 1 lsl num_qubits) ->
        decline (Printf.sprintf "amplitude index %d is outside [0, 2^%d)" k num_qubits)
    | _, Job.Expectation_z { qubit; _ } when qubit < 0 || qubit >= num_qubits ->
        decline (Printf.sprintf "qubit %d is outside [0, %d)" qubit num_qubits)
    | _ ->
        if Qdt_circuit.Circuit.has_conditionals c && not caps.dynamic then
          decline "circuit contains classically-controlled operations"
        else if Qdt_circuit.Circuit.is_unitary_only c then Ok ()
        else if
          caps.supports_nonunitary
          && (operation = Sample || operation = Expectation_z)
        then Ok ()
        else decline "circuit contains measurements or resets"

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* The one engine interface every backend implements: [create] allocates
   the backend's expensive shared state once, [submit] executes jobs against
   it (unique tables, compute caches, statevector buffers and tableau
   allocations persist between jobs), [close] retires it.  See DESIGN.md,
   "Sessions and jobs". *)
module type SESSION = sig
  val name : string
  val capabilities : capabilities

  type t
  (** One persistent engine.  Not domain-safe: submit from one domain at
      a time (a server serialises jobs per session). *)

  (** [create ?label ()] opens a session.  [label] (see
      {!fresh_session_label}) tags the session's runs on the
      [qdt.backend.runs] metric; omit it for untagged one-shot use. *)
  val create : ?label:string -> unit -> t

  (** [submit session c job] executes [job] on circuit [c].  The stats
      record covers this job only (per-job deltas, not session
      cumulative totals).  Submitting to a closed session returns a
      typed error. *)
  val submit : t -> Qdt_circuit.Circuit.t -> Job.t -> Job.result outcome

  (** [close session] releases the engine; idempotent. *)
  val close : t -> unit
end

type engine = (module SESSION)

(* The typed error every engine returns for a submit after close. *)
let session_closed ~backend job =
  Error
    {
      backend;
      operation = operation_name (operation_of_job job);
      reason = "session is closed";
    }

(* [run_once engine c job] — one job on a fresh engine: open, submit,
   close.  A fresh session starts from the exact state the pre-session
   adapters built per call, so one-shot results are bit-identical to a
   cold session's. *)
let run_once (module S : SESSION) c job =
  let s = S.create () in
  Fun.protect ~finally:(fun () -> S.close s) (fun () -> S.submit s c job)
