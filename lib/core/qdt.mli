(** Quantum Design Tools — umbrella API.

    One entry point over the four data structures the paper surveys
    (arrays, decision diagrams, tensor networks, ZX-calculus) and the
    three design tasks built on them (simulation, compilation,
    verification).  The sub-libraries remain directly usable; this module
    adds uniform front doors and re-exports.

    {[
      let bell = Qdt.Circuit.Generators.bell in
      let dd = Option.get (Qdt.Registry.find_session "decision-diagrams") in
      match Qdt.Backend.run_once dd bell Qdt.Job.Full_state with
      | Ok (Qdt.Job.State state, _stats) -> ...
      | _ -> ...
    ]} *)

(** {1 Re-exports} *)

module Linalg = Qdt_linalg
module Circuit = Qdt_circuit
module Arrays = Qdt_arraysim
module Dd = Qdt_dd
module Tensornet = Qdt_tensornet
module Zx = Qdt_zx
module Compile = Qdt_compile
module Verify = Qdt_verify
module Stabilizer = Qdt_stabilizer

(** Observability: {!Qdt_obs.Metrics} (counters / gauges / histograms),
    {!Qdt_obs.Trace} (nested spans, Chrome-trace and JSONL exporters) and
    {!Qdt_obs.Clock} (the shared monotonic clock).  Both subsystems are
    off by default and cost one flag check per instrumentation site until
    enabled. *)
module Obs = Qdt_obs

(** Multicore execution substrate: the reusable domain pool behind the
    chunked statevector kernels, parallel shot/trajectory loops, and
    task-parallel tensor-network slicing.  [Par.set_jobs 1] (or
    [QDT_JOBS=1]) disables it — output is then bit-identical to a serial
    build. *)
module Par = Qdt_par

(** {1 The backend layer}

    {!Backend} defines the one engine interface, [SESSION] (capability
    record, unified stats record, typed unsupported-operation errors,
    and the shared admission guard); {!Registry} holds the registered
    engines (["arrays"], ["decision-diagrams"], ["tensor-network"],
    ["mps"], ["stabilizer"], ["auto"]); {!Auto} is the portfolio
    dispatcher that picks a backend per job and logs its choice in the
    stats record.  {!Backend.run_once} runs one job on a fresh engine.

    {[
      let auto = Option.get (Qdt.Registry.find_session "auto") in
      match Qdt.Backend.run_once auto circuit (Qdt.Job.Sample { seed = 0; shots = 100 }) with
      | Ok (Qdt.Job.Counts counts, stats) -> (* stats.backend says what actually ran *)
      | Ok _ -> assert false (* a Sample job always returns Counts *)
      | Error e -> prerr_endline (Qdt.Backend.error_to_string e)
    ]} *)

module Backend = Backend

(** First-class job descriptors for the session layer: one value names a
    simulation request ([Full_state], [Amplitude], [Sample],
    [Expectation_z]) plus its per-job knobs.  A {!Backend.SESSION}
    engine executes jobs against persistent per-session state — the DD
    engine keeps one package (unique table, compute caches) across jobs,
    arrays/stabilizer reuse their buffers when qubit counts match.

    {[
      let (module S : Qdt.Backend.SESSION) =
        Option.get (Qdt.Registry.find_session "decision-diagrams")
      in
      let s = S.create () in
      let r1 = S.submit s circuit Qdt.Job.Full_state in
      let r2 = S.submit s circuit (Qdt.Job.Sample { seed = 0; shots = 100 }) in
      S.close s
    ]} *)
module Job = Job

module Registry = Registry
module Auto = Backend_auto

(** Static/dynamic shot-execution split shared by the backend adapters:
    static circuits keep the simulate-once-then-sample fast path, dynamic
    circuits (mid-circuit measurement, reset, classical control)
    re-execute per shot with a live classical register. *)
module Shot_engine = Shot_engine

(** Cheap circuit-feature analysis (qubits, depth, T-count, arity
    histogram, ...) shared by the [auto] router and run reports. *)
module Features = Features

(** {1 Compilation} *)

type compiled = {
  circuit : Qdt_circuit.Circuit.t;
  added_swaps : int;
  removed_gates : int;
  initial_layout : int array;
  final_layout : int array;
}

(** [compile ?optimize ~coupling c] — lower, route onto [coupling], and
    (by default) peephole-optimize. *)
val compile : ?optimize:bool -> coupling:Qdt_compile.Coupling.t -> Qdt_circuit.Circuit.t -> compiled

(** {1 Verification} *)

type checker =
  | Check_arrays
  | Check_dd
  | Check_dd_alternating
  | Check_zx
  | Check_tn
  | Check_simulation

val checker_name : checker -> string
val all_checkers : checker list

(** [equivalent ~checker c1 c2]. *)
val equivalent :
  checker:checker -> Qdt_circuit.Circuit.t -> Qdt_circuit.Circuit.t -> Qdt_verify.Equiv.verdict
