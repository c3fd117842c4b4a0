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

type stats = {
  backend : string;
  wall_s : float;
  note : string option;
  values : (string * float) list;
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

let error_to_string e =
  Printf.sprintf "backend %s does not support %s: %s" e.backend e.operation e.reason

(* Every adapter names its runs "<prefix>.<operation>" and counts them
   on [qdt.backend.runs] with the same two names as labels, a closed set
   (5 prefixes × 4 operations) well under the registry's cardinality
   cap.  Heap and registry deltas are deliberately not taken here: both
   are process-wide, so under several worker domains they would count
   other jobs' work; run-scoped deltas live in [Qdt_obs.Report]. *)
let timed ~name ~prefix job f =
  let operation = operation_name (operation_of_job job) in
  if Qdt_obs.Metrics.enabled () then
    Qdt_obs.Metrics.incr
      (Qdt_obs.Metrics.counter_with
         ~labels:[ ("backend", prefix); ("operation", operation) ]
         "qdt.backend.runs");
  let result, elapsed =
    Qdt_obs.Trace.with_span (prefix ^ "." ^ operation) (fun () ->
        let t0 = Qdt_obs.Clock.now_ns () in
        let result = f () in
        (result, Qdt_obs.Clock.elapsed_ns t0))
  in
  (result, { backend = name; wall_s = Qdt_obs.Clock.ns_to_s elapsed; note = None; values = [] })

let stats_to_string (s : stats) =
  let b = Buffer.create 128 in
  Printf.bprintf b "backend=%s wall=%.6fs" s.backend s.wall_s;
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k (Qdt_obs.Json.number v)) s.values;
  Option.iter (Printf.bprintf b "\nchoice: %s") s.note;
  Buffer.contents b

(* A value named "a.b" nests as {"a": {"b": v}}, grouping every value
   that shares the prefix, so the DD values render as the "dd" object
   clients read "stats.dd.unique_hit_rate" from. *)
let stats_to_json (s : stats) =
  let module Json = Qdt_obs.Json in
  let rec nest = function
    | [] -> []
    | (name, v) :: rest -> (
        match String.index_opt name '.' with
        | None -> (name, Json.number v) :: nest rest
        | Some i ->
            let group = String.sub name 0 (i + 1) in
            let inner, rest =
              List.partition (fun (k, _) -> String.starts_with ~prefix:group k) rest
            in
            let field (k, v) =
              (String.sub k (i + 1) (String.length k - i - 1), Json.number v)
            in
            (String.sub name 0 i, Json.obj (List.map field ((name, v) :: inner)))
            :: nest rest)
  in
  Json.obj
    ([ ("backend", Json.string s.backend); ("wall_s", Json.float s.wall_s) ]
    @ Option.to_list (Option.map (fun n -> ("note", Json.string n)) s.note)
    @ nest s.values)

(* The one dense-output cap every engine shares: a [Full_state] job
   materialises 2^n amplitudes of 16 bytes each, so 24 qubits is 256 MiB. *)
let max_dense_qubits = 24

(* The shot cap every engine shares: a dynamic circuit re-runs once per
   shot, and a served job's timeout answers the client without stopping
   its worker, so an unbounded count could park a worker for hours. *)
let max_shots = 1 lsl 20

(* The shared admission guard, called once at the top of every engine's
   [submit]: session liveness, operation capability, qubit-count limit,
   the dense-output cap, job parameters inside the circuit, the shot cap,
   measurement/reset handling, and the Clifford restriction.
   [Full_state] and [Amplitude] always require a unitary circuit (a
   collapsed state is not "the" final state); [Sample]/[Expectation_z]
   admit measurements exactly when the backend executes them
   ([supports_nonunitary]).  Engines decline nothing on their own, so
   [auto]'s routing filter, which asks this guard, is exact. *)
let admit ~closed ~name ~caps c job =
  let operation = operation_of_job job in
  let decline reason =
    Error { backend = name; operation = operation_name operation; reason }
  in
  if closed then decline "session is closed"
  else if not (supports caps operation) then decline "operation not provided by this backend"
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
    | _, Job.Sample { shots; _ } when shots < 1 || shots > max_shots ->
        decline (Printf.sprintf "%d shots is outside [1, %d]" shots max_shots)
    | _ ->
        if Qdt_circuit.Circuit.has_conditionals c && not caps.dynamic then
          decline "circuit contains classically-controlled operations"
        else if
          not
            (Qdt_circuit.Circuit.is_unitary_only c
            || (caps.supports_nonunitary
               && (operation = Sample || operation = Expectation_z)))
        then decline "circuit contains measurements or resets"
        else if caps.clifford_only && not (Qdt_stabilizer.Tableau.supports c) then
          decline "circuit contains non-Clifford gates"
        else Ok ()

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

  (** [create ()] opens a session. *)
  val create : unit -> t

  (** [submit session c job] executes [job] on circuit [c].  The stats
      record covers this job only (per-job deltas, not session
      cumulative totals).  Every decline, a closed session included,
      comes from {!admit}. *)
  val submit : t -> Qdt_circuit.Circuit.t -> Job.t -> Job.result outcome

  (** [close session] releases the engine; idempotent. *)
  val close : t -> unit
end

type engine = (module SESSION)

(* [run_once engine c job] — one job on a fresh engine: open, submit,
   close.  A fresh session starts from the exact state the pre-session
   adapters built per call, so one-shot results are bit-identical to a
   cold session's. *)
let run_once (module S : SESSION) c job =
  let s = S.create () in
  Fun.protect ~finally:(fun () -> S.close s) (fun () -> S.submit s c job)
