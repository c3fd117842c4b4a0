(* Benchmark harness: regenerates every figure/example of the paper (E1-E4)
   and every qualitative claim of its survey (E5-E10) as measurable tables.
   Experiment ids follow DESIGN.md; measured-vs-paper is recorded in
   EXPERIMENTS.md.

   Run with:  dune exec bench/main.exe                 (all experiments)
              dune exec bench/main.exe -- e16          (one experiment)
              dune exec bench/main.exe -- e16 --smoke  (small sizes, CI)
              dune exec bench/main.exe -- e18 --smoke --reps 3 --compare
                                        (gate against bench/baselines/)

   Every number an experiment prints comes from one routine,
   [run_timings]: it times all the thunks of an experiment --reps times
   (default 5, 3 under --smoke), one batch of each per rep in an order
   rotated by the rep, and summarises each as {median, mad, min, max,
   reps} — Qdt_obs.Stats — so BENCH_<id>.json carries a noise model, not
   one number.  Tables print medians; an A/B ratio is a ratio of medians,
   marked "unresolved" unless every sample of one side beats every sample
   of the other; in-experiment gates read the fastest sample.  --compare
   diffs the summaries against the committed bench/baselines/<id>.json
   with a MAD-scaled threshold (Qdt_obs.Baseline) and exits nonzero on a
   regression or on a baselined timing the run did not measure;
   --update-baselines blesses the current run instead.

   Each experiment additionally writes machine-readable results to
   BENCH_<id>.json in the working directory: every timing summary, any
   experiment-specific metrics (e.g. e16's GC counters), and the run
   report bracketing the experiment. *)

module Circuit = Qdt.Circuit.Circuit
module Generators = Qdt.Circuit.Generators
module Vec = Qdt.Linalg.Vec
module Cx = Qdt.Linalg.Cx
module Stats = Qdt.Obs.Stats
module Baseline = Qdt.Obs.Baseline

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_<id>.json)                          *)
(* ------------------------------------------------------------------ *)

(* Accumulated per experiment, reset by the driver before each run. *)
let json_timings : (string * Stats.summary) list ref = ref []
let json_metrics : (string * string) list ref = ref []

(* Samples per timing: [run_timings] times every thunk this many times.
   It is set from --reps (default 5, or 3 under --smoke). *)
let reps_flag = ref 5

(* [metric key json] records one experiment-specific value; [json] must
   already be a serialised JSON value (number, string, object, ...). *)
let metric key json = json_metrics := (key, json) :: !json_metrics
let metric_int key v = metric key (string_of_int v)
let metric_float key v = metric key (Printf.sprintf "%.6g" v)

(* [counted name] — the registry counter [name] now (0 when absent). *)
let counted name =
  match List.assoc_opt name (Qdt.Obs.Metrics.snapshot ()) with
  | Some (Qdt.Obs.Metrics.Counter_v n) -> n
  | _ -> 0

let read_trimmed path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* The commit of the git checkout the bench runs in, read from .git
   without running git; "none" outside a checkout. *)
let git_commit () =
  match read_trimmed ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_trimmed (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read_trimmed ".git/packed-refs" with
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ c; name ] when name = r -> c
                  | _ -> acc)
                "none" (String.split_on_char '\n' packed)
          | None -> "none"))
  | Some c -> c
  | None -> "none"

let write_json ~experiment ~smoke ~report =
  let file = Printf.sprintf "BENCH_%s.json" experiment in
  let oc = open_out file in
  let field (k, v) = Printf.sprintf "    \"%s\": %s" (Qdt.Obs.Json.escape k) v in
  let obj entries = String.concat ",\n" (List.map field entries) in
  Printf.fprintf oc "{\n  \"experiment\": \"%s\",\n  \"smoke\": %b,\n" (Qdt.Obs.Json.escape experiment) smoke;
  (* Where the numbers come from: a result is comparable only with one
     from the same cores, compiler and commit. *)
  Printf.fprintf oc "  \"stamp\": {\"cores\": %d, \"ocaml\": %s, \"commit\": %s},\n"
    (Domain.recommended_domain_count ())
    (Qdt.Obs.Json.string Sys.ocaml_version)
    (Qdt.Obs.Json.string (git_commit ()));
  Printf.fprintf oc "  \"timings_ns\": {\n%s\n  },\n"
    (obj (List.rev_map (fun (k, s) -> (k, Stats.summary_to_json s)) !json_timings));
  Printf.fprintf oc "  \"metrics\": {\n%s\n  },\n" (obj (List.rev !json_metrics));
  (* The run report bracketing this experiment (wall/heap, run-scoped
     metrics diff, peaks) — the same artifact `qdt simulate --report`
     emits, so bench output is queryable with the same tools. *)
  Printf.fprintf oc "  \"report\": %s\n}\n" report;
  close_out oc;
  Printf.printf "wrote %s\n" file

(* ------------------------------------------------------------------ *)
(* Timing machinery                                                    *)
(* ------------------------------------------------------------------ *)

(* One routine times every number the experiments print.  [run_timings]
   first warms up and calibrates each thunk of an experiment.  Then, for
   rep r, it times one batch of every thunk, in an order rotated by r, so
   the variants an experiment compares share host drift and heap state.
   Before a thunk's warm-up and before each of its batches, untimed, its
   [setup] runs and then a full major collection, so no batch pays to
   collect the garbage another thunk left (on a 2-core VM, e22's warm
   job read 114-148 us with a MAD of 25-58 us without the collection,
   and 78-84 us with a MAD of 1-4 us with it).  [calibrate] times up to
   [calibration_probes] single calls (stopping once they have taken
   10 ms) and sizes the batch as ceil (1 ms / median call), clamped to
   [1, max_batch]: a sample is never dominated by clock granularity, no
   single noisy call decides the batch, and the batch moves by a call
   or two with the probe median.  Each sample is batch time / batch
   size; each timing is summarised by median/MAD (Qdt_obs.Stats), robust
   against the heavy-tailed noise of preemption and GC. *)

let calibration_target_ns = 1_000_000
let calibration_probes = 7
let max_batch = 65_536

type bench = { label : string; setup : unit -> unit; fn : unit -> unit }

(* The result goes through [Sys.opaque_identity], so the work is never
   optimised away and thunks of any result type fit in one list. *)
let bench ?(setup = ignore) label fn =
  { label; setup; fn = (fun () -> ignore (Sys.opaque_identity (fn ()))) }

let time_batch fn iters =
  let t0 = Qdt.Obs.Clock.now_ns () in
  for _ = 1 to iters do
    fn ()
  done;
  Qdt.Obs.Clock.elapsed_ns t0

let calibrate fn =
  let rec probe acc spent =
    if List.length acc >= calibration_probes || spent >= 10 * calibration_target_ns then acc
    else
      let dt = time_batch fn 1 in
      probe (float_of_int dt :: acc) (spent + dt)
  in
  let per_call = Float.max 1.0 (Stats.median (Array.of_list (probe [] 0))) in
  let iters = Float.ceil (float_of_int calibration_target_ns /. per_call) in
  int_of_float (Float.min iters (float_of_int max_batch))

let pretty_ns ns =
  if ns > 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
  else Printf.sprintf "%8.1f ns" ns

let prepare t =
  t.setup ();
  Gc.full_major ()

let run_timings ~name tests =
  let tests = Array.of_list tests in
  let k = Array.length tests in
  let reps = !reps_flag in
  let iters =
    Array.map
      (fun t ->
        prepare t;
        t.fn () (* warm up *);
        calibrate t.fn)
      tests
  in
  let samples = Array.make_matrix k reps 0.0 in
  for r = 0 to reps - 1 do
    for j = 0 to k - 1 do
      let i = (r + j) mod k in
      prepare tests.(i);
      samples.(i).(r) <- float_of_int (time_batch tests.(i).fn iters.(i)) /. float_of_int iters.(i)
    done
  done;
  Array.iteri
    (fun i t ->
      let label = name ^ "/" ^ t.label in
      let s = Stats.summary samples.(i) in
      json_timings := (label, s) :: !json_timings;
      Printf.printf "  %-44s %s  ± %-10s (%d reps × %d)\n" label
        (pretty_ns s.Stats.median)
        (String.trim (pretty_ns s.Stats.mad))
        s.Stats.reps iters.(i))
    tests

(* [timing name label] — the summary [run_timings ~name] recorded for
   [label]. *)
let timing name label = List.assoc (name ^ "/" ^ label) !json_timings

let ms (s : Stats.summary) = s.Stats.median /. 1e6

(* An A/B comparison is the ratio of medians a/b.  It is resolved only
   when every sample of one side beats every sample of the other
   (Stats.separated); anything less is reported as unresolved. *)
let ratio (a : Stats.summary) (b : Stats.summary) = a.Stats.median /. b.Stats.median

let versus a b =
  Printf.sprintf "%.2fx%s" (ratio a b) (if Stats.separated a b then "" else " (unresolved)")

let metric_versus key a b =
  metric key
    (Printf.sprintf "{\"ratio\": %s, \"resolved\": %b}"
       (Qdt.Obs.Json.float (ratio a b))
       (Stats.separated a b))

(* [engine name] — the registered engine [name]; [run_ok engine c job]
   runs one job on a fresh engine of it and fails the bench on a typed
   error. *)
let engine name =
  match Qdt.Registry.find_session name with
  | Some e -> e
  | None -> failwith (name ^ " engine not registered")

let run_ok engine c job =
  match Qdt.Backend.run_once engine c job with
  | Ok (result, _stats) -> result
  | Error e -> failwith (Qdt.Backend.error_to_string e)

let header id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "================================================================\n"

(* ------------------------------------------------------------------ *)
(* E1: arrays on the Bell example (Example 1 / Section II)             *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1" "Example 1: CNOT · (superposed register) = Bell state (arrays)";
  let sv = Qdt.Arrays.Statevector.run_unitary Generators.bell in
  Printf.printf "final amplitudes: ";
  Vec.iteri
    (fun k amp -> Printf.printf "a%d=%s " k (Cx.to_string amp))
    (Qdt.Arrays.Statevector.to_vec sv);
  Printf.printf "\np(|00>) = %.4f, p(|11>) = %.4f (paper: 1/2 each)\n"
    (Qdt.Arrays.Statevector.probability sv 0)
    (Qdt.Arrays.Statevector.probability sv 3);
  run_timings ~name:"e1"
    [
      bench "array-bell-simulation" (fun () ->
          ignore (Qdt.Arrays.Statevector.run_unitary Generators.bell));
      bench "array-bell-unitary-4x4" (fun () ->
          ignore (Qdt.Arrays.Unitary_builder.unitary Generators.bell));
    ]

(* ------------------------------------------------------------------ *)
(* E2: decision diagram of the Bell state (Fig. 1 / Section III)       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2" "Fig. 1: the Bell state as a decision diagram";
  let dd = Qdt.Dd.Sim.run_unitary Generators.bell in
  Printf.printf "DD nodes: %d (Fig. 1b draws 3: one q1, two q0)\n"
    (Qdt.Dd.Sim.node_count dd);
  Printf.printf "amplitude |00> from path weights: %s (paper: 1/sqrt2)\n"
    (Cx.to_string (Qdt.Dd.Sim.amplitude dd 0));
  Printf.printf "amplitude |01>: %s (0-stub)\n" (Cx.to_string (Qdt.Dd.Sim.amplitude dd 1));
  run_timings ~name:"e2"
    [
      bench "dd-manager-create" (fun () -> ignore (Qdt.Dd.Pkg.create ()));
      bench "dd-bell-simulation" (fun () ->
          ignore (Qdt.Dd.Sim.run_unitary Generators.bell));
      bench "dd-bell-sample-1000" (fun () ->
          let st = Qdt.Dd.Sim.run_unitary Generators.bell in
          ignore (Qdt.Dd.Sim.sample st ~shots:1000));
    ]

(* ------------------------------------------------------------------ *)
(* E3: tensor network of the Bell circuit (Fig. 2 / Examples 3-4)      *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3" "Fig. 2: the Bell circuit as a tensor network";
  let tn = Qdt.Tensornet.Circuit_tn.of_circuit Generators.bell in
  Printf.printf "tensors: %d, network bytes: %d (linear in gates+qubits)\n"
    (Qdt.Tensornet.Network.tensor_count (Qdt.Tensornet.Circuit_tn.network tn))
    (Qdt.Tensornet.Circuit_tn.memory_bytes tn);
  let amp, stats = Qdt.Tensornet.Circuit_tn.amplitude tn 3 in
  Printf.printf "amplitude <11|C|00> by fixing output indices: %s\n" (Cx.to_string amp);
  Printf.printf "contraction: %d multiplications, peak tensor %d entries, %d pairwise steps\n"
    stats.Qdt.Tensornet.Network.multiplications
    stats.Qdt.Tensornet.Network.peak_tensor_size stats.Qdt.Tensornet.Network.contractions;
  run_timings ~name:"e3"
    [
      bench "tn-bell-amplitude" (fun () ->
          ignore (Qdt.Tensornet.Circuit_tn.amplitude tn 3));
      bench "tn-bell-full-state" (fun () ->
          ignore (Qdt.Tensornet.Circuit_tn.statevector tn));
    ]

(* ------------------------------------------------------------------ *)
(* E4: ZX-diagram of the Bell circuit (Fig. 3 / Example 5)             *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4" "Fig. 3: the Bell circuit in the ZX-calculus";
  let d = Qdt.Zx.Translate.of_circuit Generators.bell in
  Printf.printf "diagram: %d spiders, %d edges\n"
    (List.length (Qdt.Zx.Diagram.spiders d))
    (Qdt.Zx.Diagram.num_edges d);
  let d2 = Qdt.Zx.Translate.of_circuit Generators.bell in
  ignore (Qdt.Zx.Simplify.full_reduce d2);
  Printf.printf "graph-like + reduced: %d spiders (Fig. 3c: 2 spiders + H edge)\n"
    (List.length (Qdt.Zx.Diagram.spiders d2));
  Printf.printf "C;C† reduces to bare wires: %b (diagrammatic equivalence proof)\n"
    (let e = Qdt.Zx.Translate.equivalence_diagram Generators.bell Generators.bell in
     ignore (Qdt.Zx.Simplify.full_reduce e);
     Qdt.Zx.Simplify.is_identity e);
  run_timings ~name:"e4"
    [
      bench "zx-bell-translate" (fun () ->
          ignore (Qdt.Zx.Translate.of_circuit Generators.bell));
      bench "zx-bell-full-reduce" (fun () ->
          let d = Qdt.Zx.Translate.of_circuit Generators.bell in
          ignore (Qdt.Zx.Simplify.full_reduce d));
    ]

(* ------------------------------------------------------------------ *)
(* E5: memory scaling (Section II claim: arrays are exponential)       *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5" "Memory scaling: arrays double per qubit, DDs/TNs exploit structure";
  Printf.printf "%4s | %16s | %9s | %12s | %12s\n" "n" "array (bytes)" "DD nodes"
    "TN (bytes)" "MPS (bytes)";
  List.iter
    (fun n ->
      let ghz = Generators.ghz n in
      let dd = Qdt.Dd.Sim.run_unitary ghz in
      let tn = Qdt.Tensornet.Circuit_tn.memory_bytes (Qdt.Tensornet.Circuit_tn.of_circuit ghz) in
      let mps = Qdt.Tensornet.Mps.memory_bytes (Qdt.Tensornet.Mps.run ghz) in
      Printf.printf "%4d | %16d | %9d | %12d | %12d\n" n (16 * (1 lsl n))
        (Qdt.Dd.Sim.node_count dd) tn mps)
    [ 4; 8; 12; 16; 20 ];
  Printf.printf "extrapolated array footprint at n=50: %.1e bytes (the paper's '<50 qubits' limit)\n"
    (16.0 *. (2.0 ** 50.0));
  Printf.printf "\nunstructured (random) states: the DD advantage disappears\n";
  List.iter
    (fun n ->
      let c = Generators.random_circuit ~seed:1 ~depth:4 n in
      let dd = Qdt.Dd.Sim.run_unitary c in
      Printf.printf "  n=%-3d DD nodes=%-7d array amplitudes=%d\n" n
        (Qdt.Dd.Sim.node_count dd) (1 lsl n))
    [ 6; 10; 14 ];
  run_timings ~name:"e5"
    [
      bench "ghz18-array" (fun () ->
          ignore (Qdt.Arrays.Statevector.run_unitary (Generators.ghz 18)));
      bench "ghz18-dd" (fun () ->
          ignore (Qdt.Dd.Sim.run_unitary (Generators.ghz 18)));
      bench "ghz18-mps" (fun () ->
          ignore (Qdt.Tensornet.Mps.run (Generators.ghz 18)));
    ]

(* ------------------------------------------------------------------ *)
(* E6: simulation backends on structured workloads (Section III)       *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6" "Simulation: arrays vs decision diagrams on GHZ / QFT / Grover";
  Printf.printf "final-representation size (DD nodes vs array amplitudes):\n";
  List.iter
    (fun (name, c) ->
      let dd = Qdt.Dd.Sim.run_unitary c in
      Printf.printf "  %-12s n=%-3d DD nodes=%-6d amplitudes=%d\n" name
        (Circuit.num_qubits c) (Qdt.Dd.Sim.node_count dd)
        (1 lsl Circuit.num_qubits c))
    [
      ("ghz(16)", Generators.ghz 16);
      ("w(16)", Generators.w_state 16);
      ("qft(12)", Generators.qft 12);
      ("grover(10)", Generators.grover ~marked:37 10);
      ("random(12)", Generators.random_circuit ~seed:3 ~depth:4 12);
    ];
  run_timings ~name:"e6"
    [
      bench "qft12-array" (fun () ->
          ignore (Qdt.Arrays.Statevector.run_unitary (Generators.qft 12)));
      bench "qft12-dd" (fun () ->
          ignore (Qdt.Dd.Sim.run_unitary (Generators.qft 12)));
      bench "grover8-array" (fun () ->
          ignore (Qdt.Arrays.Statevector.run_unitary (Generators.grover ~marked:5 8)));
      bench "grover8-dd" (fun () ->
          ignore (Qdt.Dd.Sim.run_unitary (Generators.grover ~marked:5 8)));
      bench "random10-array" (fun () ->
          ignore
            (Qdt.Arrays.Statevector.run_unitary (Generators.random_circuit ~seed:2 ~depth:4 10)));
      bench "random10-dd" (fun () ->
          ignore (Qdt.Dd.Sim.run_unitary (Generators.random_circuit ~seed:2 ~depth:4 10)));
    ]

(* ------------------------------------------------------------------ *)
(* E7: tensor networks for single quantities (Section IV)              *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7" "Tensor networks: one amplitude vs the whole state";
  let n = 14 in
  let ghz = Generators.ghz n in
  let tn = Qdt.Tensornet.Circuit_tn.of_circuit ghz in
  let _, amp_stats = Qdt.Tensornet.Circuit_tn.amplitude tn ((1 lsl n) - 1) in
  Printf.printf "GHZ(%d) single amplitude: %d mults, peak tensor %d entries\n" n
    amp_stats.Qdt.Tensornet.Network.multiplications
    amp_stats.Qdt.Tensornet.Network.peak_tensor_size;
  Printf.printf "  (full state vector would hold %d complex entries)\n" (1 lsl n);
  let tn_r = Qdt.Tensornet.Circuit_tn.of_circuit (Generators.random_circuit ~seed:6 ~depth:4 12) in
  let _, full = Qdt.Tensornet.Circuit_tn.amplitude tn_r 37 in
  let _, sliced = Qdt.Tensornet.Circuit_tn.amplitude_sliced ~slices:4 tn_r 37 in
  Printf.printf
    "index slicing (ref [34]) on random(12): peak %d entries -> %d with 4 slices (work x%.1f)\n"
    full.Qdt.Tensornet.Network.peak_tensor_size sliced.Qdt.Tensornet.Network.peak_tensor_size
    (Float.of_int sliced.Qdt.Tensornet.Network.multiplications
    /. Float.of_int (max 1 full.Qdt.Tensornet.Network.multiplications));
  Printf.printf "\nMPS bond dimension = entanglement created by the circuit:\n";
  List.iter
    (fun (name, c) ->
      let mps = Qdt.Tensornet.Mps.run c in
      Printf.printf "  %-24s max bond = %-4d memory = %d bytes\n" name
        (Qdt.Tensornet.Mps.max_bond_dim mps)
        (Qdt.Tensornet.Mps.memory_bytes mps))
    [
      ("ghz(16)", Generators.ghz 16);
      ("w(16)", Generators.w_state 16);
      ("qft(8)", Generators.qft 8);
      ("random(10, depth 4)", Generators.random_circuit ~seed:5 ~depth:4 10);
    ];
  run_timings ~name:"e7"
    [
      bench "ghz14-tn-amplitude" (fun () ->
          ignore (Qdt.Tensornet.Circuit_tn.amplitude tn ((1 lsl n) - 1)));
      bench "ghz14-array-full-state" (fun () ->
          ignore (Qdt.Arrays.Statevector.run_unitary ghz));
      bench "ghz14-mps-amplitude" (fun () ->
          let mps = Qdt.Tensornet.Mps.run ghz in
          ignore (Qdt.Tensornet.Mps.amplitude mps ((1 lsl n) - 1)));
      bench "expectation-z-tn-w8" (fun () ->
          ignore (Qdt.Tensornet.Circuit_tn.expectation_z (Generators.w_state 8) 3));
    ]

(* ------------------------------------------------------------------ *)
(* E8: ZX rewriting: T-count optimization (Section V)                  *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8" "ZX-calculus: T-count reduction by graph-like simplification";
  Printf.printf "random Clifford+T (n=5, 150 gates, t-fraction 0.3):\n";
  Printf.printf "%6s | %9s | %9s | %8s\n" "seed" "T before" "T after" "spiders";
  let total_before = ref 0 and total_after = ref 0 in
  List.iter
    (fun seed ->
      let c = Generators.random_clifford_t ~seed ~gates:150 ~t_fraction:0.3 5 in
      let d = Qdt.Zx.Translate.of_circuit c in
      let before = Qdt.Zx.Simplify.t_count d in
      ignore (Qdt.Zx.Simplify.full_reduce d);
      let after = Qdt.Zx.Simplify.t_count d in
      total_before := !total_before + before;
      total_after := !total_after + after;
      Printf.printf "%6d | %9d | %9d | %8d\n" seed before after
        (List.length (Qdt.Zx.Diagram.spiders d)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Printf.printf "total: %d -> %d (%.1f%% reduction; ref [39] reports ~30-50%% on Clifford+T)\n"
    !total_before !total_after
    (100.0 *. Float.of_int (!total_before - !total_after)
     /. Float.max 1.0 (Float.of_int !total_before));
  let c = Generators.random_clifford_t ~seed:1 ~gates:150 ~t_fraction:0.3 5 in
  run_timings ~name:"e8"
    [
      bench "zx-translate-150-gates" (fun () ->
          ignore (Qdt.Zx.Translate.of_circuit c));
      bench "zx-full-reduce-150-gates" (fun () ->
          let d = Qdt.Zx.Translate.of_circuit c in
          ignore (Qdt.Zx.Simplify.full_reduce d));
    ]

(* ------------------------------------------------------------------ *)
(* E9: compilation / routing (introduction, refs [14]-[18])            *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9" "Compilation: SWAP overhead of routing onto coupling maps";
  Printf.printf "%8s | %6s | %6s | %6s | %6s\n" "circuit" "line" "ring" "grid" "full";
  List.iter
    (fun n ->
      let overhead coupling =
        (Qdt.Compile.Router.route (Generators.qft n) coupling).Qdt.Compile.Router.added_swaps
      in
      Printf.printf "%8s | %6d | %6d | %6d | %6d\n"
        (Printf.sprintf "qft(%d)" n)
        (overhead (Qdt.Compile.Coupling.line n))
        (overhead (Qdt.Compile.Coupling.ring n))
        (overhead (Qdt.Compile.Coupling.grid ~rows:2 ~cols:((n + 1) / 2)))
        (overhead (Qdt.Compile.Coupling.fully_connected n)))
    [ 4; 6; 8; 10; 12 ];
  let qft16 = Generators.qft 16 in
  Printf.printf "qft(16) on ibm-qx5 ladder: %d swaps added\n"
    (Qdt.Compile.Router.route qft16 Qdt.Compile.Coupling.ibm_qx5).Qdt.Compile.Router.added_swaps;
  run_timings ~name:"e9"
    [
      bench "route-qft10-line" (fun () ->
          ignore (Qdt.Compile.Router.route (Generators.qft 10) (Qdt.Compile.Coupling.line 10)));
      bench "route-qft16-qx5" (fun () ->
          ignore (Qdt.Compile.Router.route qft16 Qdt.Compile.Coupling.ibm_qx5));
      bench "peephole-optimize-c-cdag" (fun () ->
          let c = Generators.random_clifford ~seed:3 ~gates:100 5 in
          let cc = Circuit.append c (Circuit.adjoint c) in
          ignore (Qdt.Compile.Optimize.optimize cc));
    ]

(* ------------------------------------------------------------------ *)
(* E10: verification methods (introduction, refs [19]-[25])            *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10" "Verification: equivalence-checker comparison";
  let base = Generators.qft 4 in
  let routed =
    Qdt.Compile.Router.undo_final_permutation
      (Qdt.Compile.Router.route base (Qdt.Compile.Coupling.line 4))
  in
  Printf.printf "compiled QFT(4) vs original:\n";
  List.iter
    (fun checker ->
      Printf.printf "  %-16s %s\n" (Qdt.checker_name checker)
        (Qdt.Verify.Equiv.verdict_to_string (Qdt.equivalent ~checker base routed)))
    Qdt.all_checkers;
  Printf.printf "\nmutation detection over 20 seeded mutants of QFT(4):\n";
  let methods =
    [ Qdt.Check_arrays; Qdt.Check_dd; Qdt.Check_dd_alternating; Qdt.Check_zx; Qdt.Check_tn;
      Qdt.Check_simulation ]
  in
  let caught = Hashtbl.create 8 in
  let really_broken = ref 0 in
  for seed = 0 to 19 do
    let m = Qdt.Verify.Mutate.random ~seed base in
    let truth = Qdt.equivalent ~checker:Qdt.Check_arrays base m.Qdt.Verify.Mutate.circuit in
    if truth = Qdt.Verify.Equiv.Not_equivalent then begin
      incr really_broken;
      List.iter
        (fun checker ->
          let verdict = Qdt.equivalent ~checker base m.Qdt.Verify.Mutate.circuit in
          if verdict = Qdt.Verify.Equiv.Not_equivalent then
            Hashtbl.replace caught checker
              (1 + Option.value ~default:0 (Hashtbl.find_opt caught checker)))
        methods
    end
  done;
  List.iter
    (fun checker ->
      Printf.printf "  %-16s caught %d / %d\n" (Qdt.checker_name checker)
        (Option.value ~default:0 (Hashtbl.find_opt caught checker))
        !really_broken)
    methods;
  let eq_a = Generators.qft 6 in
  let eq_b =
    Qdt.Compile.Router.undo_final_permutation
      (Qdt.Compile.Router.route eq_a (Qdt.Compile.Coupling.line 6))
  in
  run_timings ~name:"e10"
    [
      bench "verify-qft6-arrays" (fun () -> ignore (Qdt.Verify.Equiv.arrays eq_a eq_b));
      bench "verify-qft6-dd" (fun () -> ignore (Qdt.Verify.Equiv.dd eq_a eq_b));
      bench "verify-qft6-dd-alternating" (fun () ->
          ignore (Qdt.Verify.Equiv.dd_alternating eq_a eq_b));
      bench "verify-qft6-tn" (fun () -> ignore (Qdt.Verify.Equiv.tn eq_a eq_b));
      bench "verify-qft6-simulation" (fun () ->
          ignore (Qdt.Verify.Equiv.simulation ~trials:4 eq_a eq_b));
      bench "verify-ghz10-dd" (fun () ->
          ignore (Qdt.Verify.Equiv.dd (Generators.ghz 10) (Generators.ghz 10)));
    ]

(* ------------------------------------------------------------------ *)
(* E8b: optimization method ablation                                   *)
(* ------------------------------------------------------------------ *)

let e8b () =
  header "E8b" "Ablation: peephole vs phase-polynomial vs ZX pipeline";
  Printf.printf "%6s | %16s | %16s | %16s | %16s\n" "seed" "input (g/T)" "peephole (g/T)"
    "phase-poly (g/T)" "zx (g/T)";
  List.iter
    (fun seed ->
      let c = Generators.random_clifford_t ~seed ~gates:100 ~t_fraction:0.3 5 in
      let peephole = fst (Qdt.Compile.Optimize.optimize c) in
      let pp = Qdt.Compile.Phase_poly.optimize_blocks c in
      let zx = Qdt.Zx.Extract.optimize_circuit c in
      let fmt c =
        Printf.sprintf "%d/%d" (Circuit.count_total c)
          (Qdt.Compile.Optimize.non_clifford_count c)
      in
      Printf.printf "%6d | %16s | %16s | %16s | %16s\n" seed (fmt c) (fmt peephole)
        (fmt pp) (fmt zx))
    [ 1; 2; 3; 4 ];
  let c = Generators.random_clifford_t ~seed:1 ~gates:100 ~t_fraction:0.3 5 in
  run_timings ~name:"e8b"
    [
      bench "optimize-peephole" (fun () -> ignore (Qdt.Compile.Optimize.optimize c));
      bench "optimize-phase-poly" (fun () ->
          ignore (Qdt.Compile.Phase_poly.optimize_blocks c));
      bench "optimize-zx-pipeline" (fun () -> ignore (Qdt.Zx.Extract.optimize_circuit c));
    ]

(* ------------------------------------------------------------------ *)
(* E9b: router ablation (greedy vs lookahead)                          *)
(* ------------------------------------------------------------------ *)

let e9b () =
  header "E9b" "Ablation: greedy shortest-path vs SABRE-style lookahead routing";
  Printf.printf "%22s | %8s | %10s\n" "workload/topology" "greedy" "lookahead";
  List.iter
    (fun (name, c, coupling) ->
      let greedy = (Qdt.Compile.Router.route c coupling).Qdt.Compile.Router.added_swaps in
      let look =
        (Qdt.Compile.Lookahead_router.route c coupling).Qdt.Compile.Router.added_swaps
      in
      Printf.printf "%22s | %8d | %10d\n" name greedy look)
    [
      ("qft8/line", Generators.qft 8, Qdt.Compile.Coupling.line 8);
      ("qft10/grid 2x5", Generators.qft 10, Qdt.Compile.Coupling.grid ~rows:2 ~cols:5);
      ("random8/line", Generators.random_circuit ~seed:3 ~depth:6 8, Qdt.Compile.Coupling.line 8);
      ("qv8/line", Generators.quantum_volume ~seed:2 ~depth:4 8, Qdt.Compile.Coupling.line 8);
      ("qaoa8/ring", Generators.qaoa_maxcut ~seed:5 ~layers:2 8, Qdt.Compile.Coupling.ring 8);
    ];
  let c = Generators.quantum_volume ~seed:2 ~depth:4 8 in
  run_timings ~name:"e9b"
    [
      bench "route-greedy-qv8" (fun () ->
          ignore (Qdt.Compile.Router.route c (Qdt.Compile.Coupling.line 8)));
      bench "route-lookahead-qv8" (fun () ->
          ignore (Qdt.Compile.Lookahead_router.route c (Qdt.Compile.Coupling.line 8)));
    ]

(* ------------------------------------------------------------------ *)
(* E11: stabilizer tableau scaling (Clifford circuits)                 *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11" "Stabilizer tableaus: Clifford circuits far beyond the array limit";
  Printf.printf "GHZ(n) final representation:\n";
  List.iter
    (fun n ->
      let t, _ = Qdt.Stabilizer.Tableau.run (Generators.ghz n) in
      Printf.printf "  n=%-4d tableau bytes=%-9d (array bytes would be %s)\n" n
        (Qdt.Stabilizer.Tableau.memory_bytes t)
        (if n <= 30 then string_of_int (16 * (1 lsl n)) else Printf.sprintf "2^%d·16" n))
    [ 10; 50; 100; 200 ];
  Printf.printf "hidden-shift(20, s=654321 mod 2^20) recovered: %b\n"
    (let n = 20 in
     let shift = 654321 land ((1 lsl n) - 1) in
     let t, _ = Qdt.Stabilizer.Tableau.run (Generators.hidden_shift ~shift n) in
     let ok = ref true in
     for q = 0 to n - 1 do
       let expect = if shift land (1 lsl q) <> 0 then -1 else 1 in
       if Qdt.Stabilizer.Tableau.expectation_z t q <> expect then ok := false
     done;
     !ok);
  run_timings ~name:"e11"
    [
      bench "ghz100-stabilizer" (fun () ->
          ignore (Qdt.Stabilizer.Tableau.run (Generators.ghz 100)));
      bench "ghz20-stabilizer" (fun () ->
          ignore (Qdt.Stabilizer.Tableau.run (Generators.ghz 20)));
      bench "ghz20-dd" (fun () -> ignore (Qdt.Dd.Sim.run_unitary (Generators.ghz 20)));
      bench "ghz20-array" (fun () ->
          ignore (Qdt.Arrays.Statevector.run_unitary (Generators.ghz 20)));
      bench "hidden-shift20-stabilizer" (fun () ->
          ignore (Qdt.Stabilizer.Tableau.run (Generators.hidden_shift ~shift:654321 20)));
    ]

(* ------------------------------------------------------------------ *)
(* E12: noise-aware simulation (trajectories vs density matrices)      *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12" "Noise: stochastic trajectories reproduce density-matrix results";
  let c = Generators.ghz 4 in
  Printf.printf "GHZ(4), depolarizing noise; fidelity to the ideal state:\n";
  let dd_noise =
    Qdt.Dd.Noise_sim.run ~noise:(fun () -> Qdt.Arrays.Density.phase_damping 0.1)
      (Generators.ghz 10)
  in
  Printf.printf
    "DD density matrix of GHZ(10) under phase damping: %d nodes (dense: %d entries)\n"
    (Qdt.Dd.Noise_sim.node_count dd_noise)
    (1 lsl 20);
  Printf.printf "%8s | %18s | %14s\n" "p" "trajectories(100)" "density matrix";
  List.iter
    (fun p ->
      let traj =
        Qdt.Arrays.Trajectories.average_fidelity ~seed:1
          ~noise:(Qdt.Arrays.Trajectories.depolarizing p) ~trajectories:100 c
      in
      let dm = Qdt.Arrays.Density.run ~noise:(fun () -> Qdt.Arrays.Density.depolarizing p) c in
      let exact =
        Qdt.Arrays.Density.fidelity_to_pure dm (Qdt.Arrays.Statevector.run_unitary c)
      in
      Printf.printf "%8.3f | %18.4f | %14.4f\n" p traj exact)
    [ 0.0; 0.01; 0.05; 0.1 ];
  run_timings ~name:"e12"
    [
      bench "ghz4-one-trajectory" (fun () ->
          ignore
            (Qdt.Arrays.Trajectories.run_single
               ~noise:(Qdt.Arrays.Trajectories.depolarizing 0.05) c));
      bench "ghz4-density-matrix" (fun () ->
          ignore
            (Qdt.Arrays.Density.run
               ~noise:(fun () -> Qdt.Arrays.Density.depolarizing 0.05) c));
      bench "ghz8-one-trajectory" (fun () ->
          ignore
            (Qdt.Arrays.Trajectories.run_single
               ~noise:(Qdt.Arrays.Trajectories.depolarizing 0.05) (Generators.ghz 8)));
      bench "ghz8-dd-density" (fun () ->
          ignore
            (Qdt.Dd.Noise_sim.run
               ~noise:(fun () -> Qdt.Arrays.Density.phase_damping 0.05)
               (Generators.ghz 8)));
    ]

(* ------------------------------------------------------------------ *)
(* E13: approximation in DD simulation                                 *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13" "Approximate DD simulation: nodes vs fidelity";
  (* A Grover state concentrates nearly all weight on the marked item; the
     residual uniform tail is exactly what approximation removes.  A
     random state has a flat spectrum and is incompressible — both rows of
     the trade-off the paper's ref [12] reports. *)
  let grover = Generators.grover ~marked:777 10 in
  Printf.printf "grover(10) final state (p(marked) ≈ 1), threshold sweep:\n";
  Printf.printf "%10s | %8s | %10s\n" "threshold" "nodes" "fidelity";
  List.iter
    (fun threshold ->
      let st = Qdt.Dd.Sim.run_unitary grover in
      let fidelity = Qdt.Dd.Approx.prune_state st ~threshold in
      Printf.printf "%10.0e | %8d | %10.6f\n" threshold (Qdt.Dd.Sim.node_count st) fidelity)
    [ 0.0; 1e-6; 1e-4; 1e-3 ];
  let random = Generators.random_circuit ~seed:4 ~depth:4 10 in
  Printf.printf "random(10) state (flat spectrum — incompressible):\n";
  List.iter
    (fun threshold ->
      let st = Qdt.Dd.Sim.run_unitary random in
      let fidelity = Qdt.Dd.Approx.prune_state st ~threshold in
      Printf.printf "%10.0e | %8d | %10.6f\n" threshold (Qdt.Dd.Sim.node_count st) fidelity)
    [ 1e-4; 1e-2 ];
  let st = Qdt.Dd.Sim.run_unitary grover in
  let mgr = Qdt.Dd.Sim.manager st in
  let root = Qdt.Dd.Sim.root st in
  run_timings ~name:"e13"
    [
      bench "prune-grover10" (fun () ->
          ignore (Qdt.Dd.Approx.prune mgr root ~threshold:1e-4));
    ]

(* ------------------------------------------------------------------ *)
(* E14: stabilizer-rank simulation of Clifford+T (ref [40])            *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14" "Stabilizer-rank: cost exponential in T-count, not qubit count";
  Printf.printf "single amplitude of n=8 Clifford+T circuits vs number of T gates:\n";
  Printf.printf "%4s | %10s | %12s\n" "t" "branches" "amplitude ok";
  List.iter
    (fun wanted_t ->
      (* build a Clifford circuit and sprinkle exactly wanted_t T gates *)
      let st = Random.State.make [| wanted_t |] in
      let c = ref (Generators.random_clifford ~seed:wanted_t ~gates:60 8) in
      for _ = 1 to wanted_t do
        c := Qdt.Circuit.Circuit.t (Random.State.int st 8) !c;
        let extra = Generators.random_clifford ~seed:(Random.State.int st 1000) ~gates:10 8 in
        c := Qdt.Circuit.Circuit.append !c extra
      done;
      let p = Qdt.Stabilizer.Stabilizer_rank.prepare !c in
      let amp = Qdt.Stabilizer.Stabilizer_rank.amplitude p 0 in
      let exact = Qdt.Arrays.Statevector.amplitude (Qdt.Arrays.Statevector.run_unitary !c) 0 in
      Printf.printf "%4d | %10d | %12b\n"
        (Qdt.Stabilizer.Stabilizer_rank.t_count p)
        (Qdt.Stabilizer.Stabilizer_rank.num_branches p)
        (Qdt.Linalg.Cx.approx_equal ~eps:1e-6 exact amp))
    [ 0; 2; 4; 6; 8; 10 ];
  let circuit_with_t t =
    let st = Random.State.make [| t; 99 |] in
    let c = ref (Generators.random_clifford ~seed:t ~gates:60 8) in
    for _ = 1 to t do
      c := Qdt.Circuit.Circuit.t (Random.State.int st 8) !c;
      c := Qdt.Circuit.Circuit.append !c (Generators.random_clifford ~seed:(Random.State.int st 1000) ~gates:10 8)
    done;
    !c
  in
  let p4 = Qdt.Stabilizer.Stabilizer_rank.prepare (circuit_with_t 4) in
  let p8 = Qdt.Stabilizer.Stabilizer_rank.prepare (circuit_with_t 8) in
  let c8 = circuit_with_t 8 in
  run_timings ~name:"e14"
    [
      bench "amplitude-t4" (fun () -> ignore (Qdt.Stabilizer.Stabilizer_rank.amplitude p4 0));
      bench "amplitude-t8" (fun () -> ignore (Qdt.Stabilizer.Stabilizer_rank.amplitude p8 0));
      bench "amplitude-t8-arrays" (fun () ->
          ignore (Qdt.Arrays.Statevector.amplitude (Qdt.Arrays.Statevector.run_unitary c8) 0));
      bench "ch-form-clifford-n8" (fun () ->
          ignore (Qdt.Stabilizer.Ch_form.run (Generators.random_clifford ~seed:3 ~gates:100 8)));
    ]

(* ------------------------------------------------------------------ *)
(* E15: backend portfolio — auto-dispatch choices + unified telemetry  *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15" "Backend portfolio: auto-dispatch choices and unified run telemetry";
  let nn_chain n =
    (* nearest-neighbour entangler ladder with non-Clifford rotations:
       bounded entanglement, the MPS sweet spot *)
    let c = ref (Circuit.empty n) in
    for q = 0 to n - 1 do
      c := Circuit.ry 0.3 q !c
    done;
    for q = 0 to n - 2 do
      c := Circuit.cx q (q + 1) !c
    done;
    !c
  in
  let workloads =
    [
      ("clifford(24)", Generators.random_clifford ~seed:1 ~gates:120 24);
      ("nn-chain(16)", nn_chain 16);
      ("clifford+t(5)", Generators.random_clifford_t ~seed:1 ~gates:100 ~t_fraction:0.3 5);
      ("qft(10)", Generators.qft 10);
      ("ghz(18)", Generators.ghz 18);
    ]
  in
  Printf.printf "auto choice per workload (operation: expectation of Z_0):\n";
  let z0 = Qdt.Job.Expectation_z { seed = 0; qubit = 0 } in
  List.iter
    (fun (name, c) ->
      let (module S : Qdt.Backend.SESSION), reason = Qdt.Auto.choose c z0 in
      Printf.printf "  %-16s -> %-18s %s\n" name S.name reason)
    workloads;
  Printf.printf "\nunified telemetry, same circuit through every capable backend:\n";
  let c = Generators.ghz 12 in
  List.iter
    (fun engine ->
      match Qdt.Backend.run_once engine c z0 with
      | Ok (Qdt.Job.Expectation v, stats) ->
          Printf.printf "  <Z0|ghz12> = %+.3f  %s\n" v (Qdt.Backend.stats_to_string stats)
      | Ok _ -> assert false
      | Error e -> Printf.printf "  skipped: %s\n" (Qdt.Backend.error_to_string e))
    (Qdt.Registry.all ());
  let sample_via name shots =
    match Qdt.Registry.find_session name with
    | Some engine -> fun c ->
        ignore (Qdt.Backend.run_once engine c (Qdt.Job.Sample { seed = 0; shots }))
    | None -> fun _ -> ()
  in
  run_timings ~name:"e15"
    [
      bench "auto-sample-clifford24" (fun () ->
          sample_via "auto" 100 (Generators.random_clifford ~seed:1 ~gates:120 24));
      bench "auto-sample-qft10" (fun () -> sample_via "auto" 100 (Generators.qft 10));
      bench "dd-sample-qft10" (fun () ->
          sample_via "decision-diagrams" 100 (Generators.qft 10));
    ]

(* ------------------------------------------------------------------ *)
(* E16: DD memory management — GC keeps deep simulations bounded       *)
(* ------------------------------------------------------------------ *)

(* Run a DD simulation on an explicitly configured manager and return the
   memory-management counters.  gc_threshold = 0 disables collection, so
   the same run doubles as the unbounded baseline. *)
let e16_run ~gc_threshold c =
  let mgr = Qdt.Dd.Pkg.create ~gc_threshold () in
  let st = Qdt.Dd.Sim.make mgr (Circuit.num_qubits c) in
  ignore (Circuit.execute c ~rng:(Random.State.make [| 0 |]) (Qdt.Dd.Sim.apply_instruction st));
  let stats = Qdt.Dd.Pkg.cache_stats mgr in
  let rate h l = if l = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int l in
  ( stats,
    Qdt.Dd.Pkg.peak_unique_table_size mgr,
    Qdt.Dd.Pkg.unique_table_size mgr,
    Qdt.Dd.Pkg.cnum_live_entries mgr,
    rate stats.Qdt.Dd.Pkg.compute_hits stats.Qdt.Dd.Pkg.compute_lookups )

let e16 ~smoke () =
  header "E16" "DD memory management: mark-and-sweep GC bounds deep simulations";
  let workloads =
    if smoke then
      [
        ("deep-clifford-t", Generators.random_clifford_t ~seed:7 ~gates:400 ~t_fraction:0.2 8);
        ("qft", Generators.qft 10);
      ]
    else
      [
        (* ~100 layers of one gate per qubit *)
        ("deep-clifford-t", Generators.random_clifford_t ~seed:7 ~gates:1200 ~t_fraction:0.2 12);
        ("qft", Generators.qft 16);
      ]
  in
  let gc_threshold = if smoke then 1024 else 8192 in
  let arms = [ ("off", 0); ("on", gc_threshold) ] in
  let label name tag = Printf.sprintf "%s-gc-%s" name tag in
  run_timings ~name:"e16"
    (List.concat_map
       (fun (name, c) ->
         List.map
           (fun (tag, threshold) ->
             bench (label name tag) (fun () -> e16_run ~gc_threshold:threshold c))
           arms)
       workloads);
  Printf.printf "\ngc threshold: %d unique-table entries (0 = collection off)\n\n" gc_threshold;
  Printf.printf "%18s | %6s | %9s | %10s | %8s | %9s | %9s | %7s\n" "workload" "gc"
    "wall (ms)" "peak nodes" "final" "collected" "cnum live" "cache%";
  List.iter
    (fun (name, c) ->
      (* The counters come from one more, untimed run of each arm. *)
      let report (tag, threshold) =
        let stats, peak, final, cnum_live, cache_pct = e16_run ~gc_threshold:threshold c in
        Printf.printf "%18s | %6s | %9.2f | %10d | %8d | %9d | %9d | %6.1f%%\n" name tag
          (ms (timing "e16" (label name tag)))
          peak final stats.Qdt.Dd.Pkg.nodes_collected cnum_live cache_pct;
        let m key v = metric_int (Printf.sprintf "%s.%s.%s" name tag key) v in
        m "peak_unique_table" peak;
        m "final_unique_table" final;
        m "gc_runs" stats.Qdt.Dd.Pkg.gc_runs;
        m "nodes_collected" stats.Qdt.Dd.Pkg.nodes_collected;
        m "cnums_collected" stats.Qdt.Dd.Pkg.cnums_collected;
        m "cnum_live_entries" cnum_live;
        metric_float (Printf.sprintf "%s.%s.compute_hit_pct" name tag) cache_pct;
        (peak, final)
      in
      let peak_off, _ = report ("off", 0) in
      let peak_on, final_on = report ("on", gc_threshold) in
      let off = timing "e16" (label name "off") and on = timing "e16" (label name "on") in
      Printf.printf
        "  -> GC bounds the table to %.1fx the final live size (unbounded peak: %.1fx); wall off/on: %s\n"
        (float_of_int peak_on /. float_of_int (max 1 final_on))
        (float_of_int peak_off /. float_of_int (max 1 final_on))
        (versus off on);
      metric_versus (name ^ ".off_vs_on") off on)
    workloads

(* ------------------------------------------------------------------ *)
(* E17: observability overhead — traced vs untraced simulation         *)
(* ------------------------------------------------------------------ *)

(* The observability contract (DESIGN.md): a disabled instrumentation site
   costs one flag check.  This experiment times three variants of a deep
   Clifford+T DD simulation, interleaved:
     1. both subsystems disabled (the shipping default),
     2. metrics enabled,
     3. tracing enabled;
   and then bounds the *disabled-mode* overhead directly: the per-call
   cost of a disabled primitive (measured in a tight loop) times the
   number of instrumentation calls the run executes (counted by running
   once with metrics on).  The experiment FAILS if that bound exceeds 2%
   of the fastest untraced sample. *)

let e17_overhead_budget_pct = 2.0

let e17 ~smoke () =
  header "E17" "Observability overhead: traced vs untraced deep Clifford+T";
  let n = if smoke then 8 else 10 in
  let gates = if smoke then 400 else 2000 in
  let c = Generators.random_clifford_t ~seed:11 ~gates ~t_fraction:0.2 n in
  let run_once () =
    let st = Qdt.Dd.Sim.make (Qdt.Dd.Pkg.create ()) (Circuit.num_qubits c) in
    ignore (Circuit.execute c ~rng:(Random.State.make [| 0 |]) (Qdt.Dd.Sim.apply_instruction st))
  in
  let obs ~metrics ~trace () =
    Qdt.Obs.Metrics.set_enabled metrics;
    Qdt.Obs.Trace.clear ();
    Qdt.Obs.Trace.set_enabled trace
  in
  (* Ring sized so nothing wraps within a batch. *)
  Qdt.Obs.Trace.configure ~capacity:(1 lsl 18) ();
  run_timings ~name:"e17"
    [
      bench "deep-clifford-t-untraced" ~setup:(obs ~metrics:false ~trace:false) run_once;
      bench "deep-clifford-t-metrics" ~setup:(obs ~metrics:true ~trace:false) run_once;
      bench "deep-clifford-t-traced" ~setup:(obs ~metrics:false ~trace:true) run_once;
    ];
  obs ~metrics:false ~trace:false ();
  (* Count the instrumentation calls one run executes: per instruction one
     counter increment plus a begin/end span bracket, and per compute-cache
     probe a lookup increment plus (on hit) a hit increment. *)
  Qdt.Obs.Metrics.set_enabled true;
  Qdt.Obs.Metrics.reset ();
  run_once ();
  let instr_sites = counted "dd.gates" + counted "dd.measurements" in
  let ops_per_run =
    (3 * instr_sites) + counted "dd.cache.lookups" + counted "dd.cache.hits"
    + (4 * counted "dd.gc.runs")
  in
  Qdt.Obs.Metrics.set_enabled false;
  (* Per-call cost of a disabled primitive, measured in a tight loop. *)
  let probe = Qdt.Obs.Metrics.counter "e17.probe" in
  let probe_iters = 5_000_000 in
  let t0 = Qdt.Obs.Clock.now_ns () in
  for _ = 1 to probe_iters do
    Qdt.Obs.Metrics.incr probe;
    Qdt.Obs.Trace.emit_begin "e17.probe"
  done;
  let per_op_ns =
    float_of_int (Qdt.Obs.Clock.elapsed_ns t0) /. float_of_int (2 * probe_iters)
  in
  (* The probe counter is measurement scaffolding, not a result — drop it
     from the registry so it never ships in a BENCH_*.json report. *)
  Qdt.Obs.Metrics.remove "e17.probe";
  Qdt.Obs.Metrics.set_enabled true;
  let t = timing "e17" in
  let untraced = t "deep-clifford-t-untraced" in
  let metrics = t "deep-clifford-t-metrics" and traced = t "deep-clifford-t-traced" in
  let disabled_bound_pct =
    100.0 *. (float_of_int ops_per_run *. per_op_ns) /. untraced.Stats.min
  in
  Printf.printf "\nworkload: random Clifford+T, n=%d, %d gates (DD backend, %d interleaved reps)\n\n"
    n gates !reps_flag;
  Printf.printf "  untraced (obs disabled)   %9.2f ms\n" (ms untraced);
  Printf.printf "  metrics enabled           %9.2f ms  %s\n" (ms metrics) (versus metrics untraced);
  Printf.printf "  trace enabled             %9.2f ms  %s\n" (ms traced) (versus traced untraced);
  Printf.printf "\n  instrumentation calls per run: %d (%.1f per gate)\n" ops_per_run
    (float_of_int ops_per_run /. float_of_int (max 1 instr_sites));
  Printf.printf "  disabled primitive cost: %.2f ns/call\n" per_op_ns;
  Printf.printf
    "  disabled-mode overhead bound: %.3f%% of the fastest untraced sample (budget: %.1f%%)\n"
    disabled_bound_pct e17_overhead_budget_pct;
  metric_versus "metrics_vs_untraced" metrics untraced;
  metric_versus "traced_vs_untraced" traced untraced;
  metric_int "instrumentation_calls_per_run" ops_per_run;
  metric_float "disabled_per_call_ns" per_op_ns;
  metric_float "disabled_overhead_bound_pct" disabled_bound_pct;
  metric_float "disabled_overhead_budget_pct" e17_overhead_budget_pct;
  if disabled_bound_pct > e17_overhead_budget_pct then begin
    Printf.eprintf
      "E17 FAILED: disabled-mode observability overhead bound %.3f%% exceeds the %.1f%% budget\n"
      disabled_bound_pct e17_overhead_budget_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E18: unboxed numeric substrate — boxed vs flat-float kernels        *)
(* ------------------------------------------------------------------ *)

(* The tentpole claim of the unboxed substrate refactor: storing
   amplitudes as one flat interleaved float array (instead of an array of
   boxed Cx.t records) makes the statevector and MPS hot paths both
   faster and allocation-free per gate.  This experiment runs the e16/e17
   workloads plus a QFT and a nearest-neighbour MPS ansatz through the
   current engines AND through the retained boxed reference
   implementations (test/ref, linked as qdt_ref), timing each pair
   interleaved and counting GC minor words per gate on one more, untimed
   call of each.  The experiment FAILS if the unboxed statevector's
   fastest sample is slower than the boxed one's anywhere. *)

(* Nearest-neighbour layered ansatz: Ry on every qubit then CX down the
   chain, per layer — every two-qubit gate is adjacent, so the MPS engine
   never routes and the bond dimension is exercised directly. *)
let e18_mps_ansatz ~layers n =
  let c = ref (Circuit.empty n) in
  for layer = 0 to layers - 1 do
    for q = 0 to n - 1 do
      c := Circuit.ry (0.37 +. (0.11 *. float_of_int ((layer * n) + q))) q !c
    done;
    for q = 0 to n - 2 do
      c := Circuit.cx q (q + 1) !c
    done
  done;
  !c

let minor_words (b : bench) =
  let w0 = Gc.minor_words () in
  b.fn ();
  Gc.minor_words () -. w0

let e18 ~smoke () =
  header "E18" "Unboxed numeric substrate: boxed vs flat-float engines";
  let sv_workloads =
    if smoke then
      [
        ( "clifford-t-deep",
          Generators.random_clifford_t ~seed:7 ~gates:400 ~t_fraction:0.2 8 );
        ( "clifford-t",
          Generators.random_clifford_t ~seed:11 ~gates:400 ~t_fraction:0.2 8 );
        ("qft", Generators.qft 10);
      ]
    else
      [
        (* e16's deep Clifford+T workload *)
        ( "clifford-t-deep",
          Generators.random_clifford_t ~seed:7 ~gates:1200 ~t_fraction:0.2 12 );
        (* e17's observability workload *)
        ( "clifford-t",
          Generators.random_clifford_t ~seed:11 ~gates:2000 ~t_fraction:0.2 10 );
        ("qft", Generators.qft 14);
      ]
  in
  (* The deep workload keeps the labels e18/sv-boxed and e18/sv-unboxed. *)
  let sv_label name = if name = "clifford-t-deep" then "sv" else "sv-" ^ name in
  (* MPS: same comparison through the boxed reference two-qubit/SVD path. *)
  let mps_n = if smoke then 8 else 12 in
  let mps_layers = if smoke then 3 else 6 in
  let mps_c = e18_mps_ansatz ~layers:mps_layers mps_n in
  let max_bond = 32 in
  let pair label boxed unboxed =
    [ bench (label ^ "-boxed") boxed; bench (label ^ "-unboxed") unboxed ]
  in
  let benches =
    List.concat_map
      (fun (name, c) ->
        pair (sv_label name)
          (fun () -> Qdt_ref.Sv_ref.run_unitary c)
          (fun () -> Qdt.Arrays.Statevector.run_unitary c))
      sv_workloads
    @ pair "mps"
        (fun () -> Qdt_ref.Mps_ref.run ~max_bond mps_c)
        (fun () -> Qdt.Tensornet.Mps.run ~max_bond mps_c)
  in
  run_timings ~name:"e18" benches;
  Printf.printf "\n%16s | %12s | %12s | %13s | %13s | %6s | %s\n" "workload" "boxed (ms)"
    "unboxed (ms)" "boxed w/gate" "unbox w/gate" "alloc/" "speedup";
  (* One table row; returns the gate's speedup, read on the fastest
     samples. *)
  let row ~key name label c =
    let gates = float_of_int (max 1 (Circuit.count_total c)) in
    let arm suffix = List.find (fun b -> b.label = label ^ suffix) benches in
    let boxed = timing "e18" (label ^ "-boxed") and unboxed = timing "e18" (label ^ "-unboxed") in
    let boxed_wpg = minor_words (arm "-boxed") /. gates in
    let unboxed_wpg = minor_words (arm "-unboxed") /. gates in
    let alloc_reduction = boxed_wpg /. Float.max unboxed_wpg 1e-9 in
    Printf.printf "%16s | %12.3f | %12.3f | %13.0f | %13.1f | %5.0fx | %s\n" name (ms boxed)
      (ms unboxed) boxed_wpg unboxed_wpg alloc_reduction (versus boxed unboxed);
    metric_versus (key ^ ".speedup") boxed unboxed;
    metric_float (key ^ ".boxed_minor_words_per_gate") boxed_wpg;
    metric_float (key ^ ".unboxed_minor_words_per_gate") unboxed_wpg;
    metric_float (key ^ ".minor_words_reduction") alloc_reduction;
    metric_int (key ^ ".gates") (int_of_float gates);
    boxed.Stats.min /. unboxed.Stats.min
  in
  let min_speedup =
    List.fold_left
      (fun acc (name, c) -> Float.min acc (row ~key:("sv." ^ name) name (sv_label name) c))
      infinity sv_workloads
  in
  ignore (row ~key:"mps" (Printf.sprintf "mps-ansatz-%d" mps_n) "mps" mps_c);
  metric_int "mps.num_qubits" mps_n;
  metric_float "min_sv_speedup" min_speedup;
  Printf.printf
    "\n  minimum statevector speedup, fastest samples: %.2fx (guard: must be >= 1)\n"
    min_speedup;
  if min_speedup < 1.0 then begin
    Printf.eprintf
      "E18 FAILED: unboxed statevector is slower than the boxed baseline (%.2fx)\n"
      min_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E19: dynamic circuits — static sampling path vs per-shot execution  *)
(* ------------------------------------------------------------------ *)

(* The shot engine keeps two fast paths for static circuits (simulate
   once, sample the final state) and falls back to per-shot re-execution
   only when the circuit is genuinely dynamic (mid-circuit measurement
   feeding later operations, reset, or classical control).  This
   experiment measures sampling throughput (shots/sec) on both sides of
   that split: GHZ with terminal measurements exercises the static
   paths, while teleportation, repeat-until-success and a repetition-code
   cycle exercise per-shot execution on arrays, decision diagrams and
   the stabilizer tableau. *)

let e19 ~smoke () =
  header "E19" "Dynamic circuits: static sampling path vs per-shot execution";
  let shots = if smoke then 200 else 2000 in
  let n = if smoke then 8 else 12 in
  let static_unitary = Generators.ghz n in
  let static_final = Circuit.measure_all static_unitary in
  let teleport = Generators.teleportation () in
  let rus = Generators.repeat_until_success ~rounds:3 () in
  let repetition = Generators.repetition_code ~cycles:(if smoke then 1 else 3) () in
  let workloads =
    [
      ("ghz-unitary-arrays", "arrays", static_unitary);
      ("ghz-measured-arrays", "arrays", static_final);
      ("ghz-measured-dd", "decision-diagrams", static_final);
      ("teleport-arrays", "arrays", teleport);
      ("teleport-dd", "decision-diagrams", teleport);
      ("teleport-stabilizer", "stabilizer", teleport);
      ("rus-arrays", "arrays", rus);
      ("repetition-stabilizer", "stabilizer", repetition);
    ]
  in
  let job = Qdt.Job.Sample { seed = 5; shots } in
  run_timings ~name:"e19"
    (List.map
       (fun (wname, backend, c) ->
         let e = engine backend in
         bench wname (fun () -> run_ok e c job))
       workloads);
  Printf.printf "\n%24s | %12s | %12s | %7s\n" "workload" "wall (ms)" "shots/sec" "dynamic";
  List.iter
    (fun (wname, _, c) ->
      let wall = timing "e19" wname in
      let sps = float_of_int shots /. (wall.Stats.median /. 1e9) in
      Printf.printf "%24s | %12.3f | %12.0f | %7s\n" wname (ms wall) sps
        (if Circuit.is_dynamic c then "yes" else "-");
      metric_float (wname ^ ".shots_per_sec") sps)
    workloads;
  (* Headline number: how much the per-shot path costs relative to the
     simulate-once-then-sample path on the same backend (the ratio of
     throughputs is the inverse ratio of wall times). *)
  let per_shot = timing "e19" "teleport-arrays" and static = timing "e19" "ghz-measured-arrays" in
  Printf.printf "\n  arrays static-path / per-shot-path throughput: %s\n" (versus per_shot static);
  metric_versus "arrays.static_over_dynamic_ratio" per_shot static;
  metric_int "shots" shots;
  metric_int "ghz_qubits" n

(* ------------------------------------------------------------------ *)
(* E20: multicore scaling — speedup vs. domain count                   *)
(* ------------------------------------------------------------------ *)

(* Three workload shapes across the Qdt_par substrate: a 20+-qubit
   statevector gate sweep (kernel chunking), a 1000-trajectory noise run
   (trajectory blocks), and dynamic per-shot sampling (split RNG
   streams).  Each is timed at jobs ∈ {1, 2, 4}, all nine interleaved;
   jobs = 1 is the serial reference.  The gate scales with the machine:
   on >= 4 cores it demands real speedup at 4 domains, on fewer cores
   (where 4 domains oversubscribe them) it only guards against
   sub-linear collapse — parallel overhead must not eat more than a
   bounded fraction of the serial time.  Both read the fastest samples.
   The jobs = 2 and jobs = 4 sampled counts are asserted identical,
   pinning the split-stream determinism contract. *)

let e20_job_counts = [ 1; 2; 4 ]

let e20 ~smoke () =
  header "E20" "Multicore scaling: domain pool speedup vs. job count";
  let cores = Domain.recommended_domain_count () in
  let sweep_n = if smoke then 16 else 20 in
  let trajectories = if smoke then 200 else 1000 in
  let shots = if smoke then 500 else 2000 in
  let sweep_c = Generators.random_circuit ~seed:9 ~depth:3 sweep_n in
  let traj_c = Generators.ghz (if smoke then 8 else 10) in
  let noise = Qdt.Arrays.Trajectories.depolarizing 0.01 in
  let teleport = Generators.teleportation () in
  let arrays = engine "arrays" in
  let shots_job = Qdt.Job.Sample { seed = 5; shots } in
  let workloads =
    [
      ("sweep", fun () -> ignore (Qdt.Arrays.Statevector.run_unitary sweep_c));
      ( "trajectories",
        fun () ->
          ignore
            (Qdt.Arrays.Trajectories.average_probabilities ~seed:3 ~noise
               ~trajectories traj_c) );
      ("dynamic-shots", fun () -> ignore (run_ok arrays teleport shots_job));
    ]
  in
  let label wname j = Printf.sprintf "%s-jobs%d" wname j in
  (* Before each batch: the batch's job count.  Jobs 1 also drops the
     pool an earlier jobs-4 batch spawned, as a --jobs 1 process has
     none, and one untimed run settles the state and heap at the new
     count. *)
  let at j run () =
    Qdt.Par.set_jobs j;
    if j = 1 then Qdt.Par.shutdown ();
    run ()
  in
  run_timings ~name:"e20"
    (List.concat_map
       (fun (wname, run) ->
         List.map (fun j -> bench ~setup:(at j run) (label wname j) run) e20_job_counts)
       workloads);
  Printf.printf "\nrecommended domain count: %d\n" cores;
  if cores < 2 then print_endline "one core: no speedup ratio is recorded as a scaling claim";
  Printf.printf "%16s | %12s | %12s | %12s | %-18s | %s\n" "workload" "jobs=1 (ms)"
    "jobs=2 (ms)" "jobs=4 (ms)" "x @2" "x @4";
  List.iter
    (fun (wname, _) ->
      let t j = timing "e20" (label wname j) in
      Printf.printf "%16s | %12.3f | %12.3f | %12.3f | %-18s | %s\n" wname (ms (t 1)) (ms (t 2))
        (ms (t 4)) (versus (t 1) (t 2)) (versus (t 1) (t 4));
      (* One core cannot speed anything up: a ratio there measures pool
         overhead, so it is not recorded as a scaling claim. *)
      if cores >= 2 then
        List.iter
          (fun j -> metric_versus (Printf.sprintf "%s.speedup%d" wname j) (t 1) (t j))
          [ 2; 4 ])
    workloads;
  metric_int "cores" cores;
  metric_int "sweep_qubits" sweep_n;
  metric_int "trajectories" trajectories;
  metric_int "shots" shots;
  (* Determinism pin: identical dynamic counts at every parallel job
     count (the jobs >= 2 contract; jobs = 1 keeps the legacy stream). *)
  let counts j =
    Qdt.Par.set_jobs j;
    run_ok arrays teleport shots_job
  in
  let counts2 = counts 2 in
  let counts4 = counts 4 in
  if counts2 <> counts4 then begin
    Printf.eprintf "E20 FAILED: dynamic counts differ between jobs=2 and jobs=4\n";
    exit 1
  end;
  Printf.printf "\n  jobs=2 and jobs=4 dynamic counts: identical (determinism pin)\n";
  (* Scaling gate, on the fastest samples. *)
  let demand wname floor =
    let s = (timing "e20" (label wname 1)).Stats.min /. (timing "e20" (label wname 4)).Stats.min in
    if s < floor then begin
      Printf.eprintf "E20 FAILED: %s speedup at 4 domains is %.2fx (floor %.2fx)\n"
        wname s floor;
      exit 1
    end
  in
  if cores >= 4 then begin
    let sweep_floor = if smoke then 1.2 else 2.0 in
    let traj_floor = if smoke then 1.2 else 3.0 in
    Printf.printf "  gate (%d cores): sweep >= %.1fx, trajectories >= %.1fx at 4 domains\n"
      cores sweep_floor traj_floor;
    demand "sweep" sweep_floor;
    demand "trajectories" traj_floor
  end
  else begin
    (* Too few cores for a speedup floor at 4 domains; guard that the
       pool does not collapse (oversubscribed domains must stay within
       4x of serial). *)
    Printf.printf
      "  gate (%d cores): collapse guard only (fewer than 4 cores; >= 0.25x)\n"
      cores;
    List.iter (fun (wname, _) -> demand wname 0.25) workloads
  end;
  (* Leave the process the way the other experiments expect it. *)
  Qdt.Par.set_jobs 1;
  Qdt.Par.shutdown ()

(* ------------------------------------------------------------------ *)
(* E21: run-report + labeled-metrics overhead on the e17 workload      *)
(* ------------------------------------------------------------------ *)

(* The service-telemetry layer adds two classes of instrumentation to
   the e17 deep Clifford+T workload: labeled metric series (Atomic cells
   behind encoded registry keys) and resource peaks, the report's
   watermarks (CAS-max cells).  This experiment re-applies the e17
   methodology to them:
     1. the *disabled* per-call cost of the new primitives, times the
        instrumentation calls one run executes, must stay within e17's
        2% budget — labels and peaks ride the same one-load gate;
     2. a full Report bracket (start / run / finish) must cost at most
        5% of the plain wall time — the price of `--report` on every
        simulation a service runs.
   Both bounds divide by the fastest plain sample. *)

let e21_report_budget_pct = 5.0

let e21 ~smoke () =
  header "E21" "Run reports: labeled-metrics + watermark + report-bracket overhead";
  let n = if smoke then 8 else 10 in
  let gates = if smoke then 400 else 2000 in
  let c = Generators.random_clifford_t ~seed:11 ~gates ~t_fraction:0.2 n in
  let run_once () =
    let st = Qdt.Dd.Sim.make (Qdt.Dd.Pkg.create ()) (Circuit.num_qubits c) in
    ignore (Circuit.execute c ~rng:(Random.State.make [| 0 |]) (Qdt.Dd.Sim.apply_instruction st))
  in
  (* Everything off, the shipping default, or labeled metrics and peaks
     live.  A report bracket turns metrics on for its run and restores
     the flag. *)
  let metrics on () =
    Qdt.Obs.Metrics.set_enabled on;
    Qdt.Obs.Trace.set_enabled false
  in
  let reported body () =
    let rep = Qdt.Obs.Report.start () in
    body ();
    Qdt.Obs.Report.finish rep
  in
  run_timings ~name:"e21"
    [
      bench "deep-clifford-t-plain" ~setup:(metrics false) run_once;
      bench "deep-clifford-t-instrumented" ~setup:(metrics true) run_once;
      bench "deep-clifford-t-reported" ~setup:(metrics false) (reported run_once);
      (* The bracket's own cost, isolated: start/finish around an empty
         body, against the registry the instrumented runs populated.  Like
         e17's disabled-mode bound, this analytic form (bracket cost /
         wall) is immune to the run-to-run noise that swamps a direct
         wall comparison on a workload this size. *)
      bench "report-bracket" ~setup:(metrics false) (reported ignore);
    ];
  (* The peak raises one run executes: the DD engine's one per job
     (counted even though this harness drives Sim directly, so the bound
     stays conservative).  Labeled counters in this workload fire per
     backend entry, not per gate — the per-gate counters are the
     e17-audited plain ones. *)
  let new_ops_per_run = 1 in
  (* Disabled per-call cost of the new primitives: a labeled counter
     increment plus a peak raise, flag off. *)
  metrics false ();
  let probe_c = Qdt.Obs.Metrics.counter_with ~labels:[ ("probe", "e21") ] "e21.probe" in
  let probe_p = Qdt.Obs.Metrics.peak "e21.probe" in
  let probe_iters = 5_000_000 in
  let t0 = Qdt.Obs.Clock.now_ns () in
  for i = 1 to probe_iters do
    Qdt.Obs.Metrics.incr probe_c;
    Qdt.Obs.Metrics.raise_to_int probe_p i
  done;
  let per_op_ns =
    float_of_int (Qdt.Obs.Clock.elapsed_ns t0) /. float_of_int (2 * probe_iters)
  in
  Qdt.Obs.Metrics.remove "e21.probe{probe=\"e21\"}";
  Qdt.Obs.Metrics.remove "e21.probe";
  metrics true ();
  let t = timing "e21" in
  let plain = t "deep-clifford-t-plain" and bracket = t "report-bracket" in
  let instrumented = t "deep-clifford-t-instrumented" and reported = t "deep-clifford-t-reported" in
  let report_overhead_pct = 100.0 *. bracket.Stats.min /. plain.Stats.min in
  let disabled_bound_pct =
    100.0 *. (float_of_int new_ops_per_run *. per_op_ns) /. plain.Stats.min
  in
  Printf.printf
    "\nworkload: random Clifford+T, n=%d, %d gates (DD backend, %d interleaved reps)\n\n"
    n gates !reps_flag;
  Printf.printf "  plain (obs disabled)      %9.2f ms\n" (ms plain);
  Printf.printf "  labels + watermarks       %9.2f ms  %s\n" (ms instrumented)
    (versus instrumented plain);
  Printf.printf "  full report bracket       %9.2f ms  %s\n" (ms reported) (versus reported plain);
  Printf.printf "  report bracket alone      %9.1f us\n" (bracket.Stats.median /. 1e3);
  Printf.printf "\n  new instrumentation calls per run: %d\n" new_ops_per_run;
  Printf.printf "  disabled labeled+watermark cost: %.2f ns/call\n" per_op_ns;
  Printf.printf
    "  disabled-mode overhead bound: %.4f%% of the fastest plain sample (budget: %.1f%%)\n"
    disabled_bound_pct e17_overhead_budget_pct;
  Printf.printf
    "  report bracket cost: fastest %.1f us -> %.4f%% of the fastest plain sample (budget: %.1f%%)\n"
    (bracket.Stats.min /. 1e3) report_overhead_pct e21_report_budget_pct;
  metric_versus "instrumented_vs_plain" instrumented plain;
  metric_versus "reported_vs_plain" reported plain;
  metric_float "report_overhead_pct" report_overhead_pct;
  metric_int "new_instrumentation_calls_per_run" new_ops_per_run;
  metric_float "disabled_per_call_ns" per_op_ns;
  metric_float "disabled_overhead_bound_pct" disabled_bound_pct;
  metric_float "report_overhead_budget_pct" e21_report_budget_pct;
  if disabled_bound_pct > e17_overhead_budget_pct then begin
    Printf.eprintf
      "E21 FAILED: disabled-mode labeled/watermark overhead bound %.4f%% exceeds the %.1f%% budget\n"
      disabled_bound_pct e17_overhead_budget_pct;
    exit 1
  end;
  if report_overhead_pct > e21_report_budget_pct then begin
    Printf.eprintf
      "E21 FAILED: report-bracket overhead %.4f%% of wall exceeds the %.1f%% budget\n"
      report_overhead_pct e21_report_budget_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E22: sessions — warm vs cold DD engines on repeated jobs            *)
(* ------------------------------------------------------------------ *)

(* The session refactor's headline number: a session-held DD package
   keeps its unique table, complex-number table and compute caches
   across jobs, so a repeated Clifford+T workload re-runs against warm
   caches instead of rebuilding them per request (the amortizable
   structures of DAC'22 §III / arXiv:2108.07027).  Cold = a fresh
   engine per job (exactly what every [Backend.run_once] call does);
   warm = one engine for the whole batch.  The gate fails if the fastest
   warm batch is not faster than the fastest cold one. *)

let e22 ~smoke () =
  header "E22" "Sessions: warm vs cold DD engines on repeated Clifford+T jobs";
  (* Sized so the batch's unique table stays under the GC threshold: a
     collection clears the compute caches wholesale, which is exactly the
     state a warm session exists to preserve.  (E16 covers the bounded-
     memory regime where GC fires.) *)
  let n = if smoke then 6 else 7 in
  let gates = if smoke then 120 else 180 in
  let jobs = if smoke then 6 else 10 in
  let c = Generators.random_clifford_t ~seed:13 ~gates ~t_fraction:0.25 n in
  let (module S : Qdt.Backend.SESSION) = engine "decision-diagrams" in
  (* Amplitude jobs: full DD evolution per job, O(n) payload read — the
     timing is cache behavior, not payload densification. *)
  let job = Qdt.Job.Amplitude 0 in
  let submit_ok s =
    match S.submit s c job with
    | Ok (_, stats) -> stats
    | Error e -> failwith (Qdt.Backend.error_to_string e)
  in
  let run_cold () =
    for _ = 1 to jobs do
      let s = S.create () in
      ignore (submit_ok s);
      S.close s
    done
  in
  let run_warm () =
    let s = S.create () in
    for _ = 1 to jobs do
      ignore (submit_ok s)
    done;
    S.close s
  in
  let warm_s = S.create () in
  ignore (submit_ok warm_s) (* prime the engine for the warm-job timing *);
  run_timings ~name:"e22"
    [
      bench "cold-batch" run_cold;
      bench "warm-batch" run_warm;
      bench "cold-session-job" (fun () ->
          let s = S.create () in
          let st = submit_ok s in
          S.close s;
          st);
      bench "warm-session-job" (fun () -> submit_ok warm_s);
    ];
  S.close warm_s;
  (* Where the speedup comes from: per-job cache-counter deltas across
     one warm batch. *)
  let s = S.create () in
  let first = submit_ok s in
  let last = ref first in
  for _ = 2 to jobs do
    last := submit_ok s
  done;
  S.close s;
  let dd_of (st : Qdt.Backend.stats) key =
    match List.assoc_opt ("dd." ^ key) st.Qdt.Backend.values with
    | Some v -> v
    | None -> failwith "dd stats missing"
  in
  let d1 = dd_of first and dn = dd_of !last in
  let t = timing "e22" in
  let cold = t "cold-batch" and warm = t "warm-batch" in
  let cold_job = t "cold-session-job" and warm_job = t "warm-session-job" in
  Printf.printf
    "\nworkload: random Clifford+T, n=%d, %d gates, %d identical jobs per batch (%d interleaved reps)\n\n"
    n gates jobs !reps_flag;
  Printf.printf "  cold sessions (fresh engine per job)  %9.2f ms\n" (ms cold);
  Printf.printf "  warm session  (one engine, %2d jobs)   %9.2f ms\n" jobs (ms warm);
  Printf.printf "  batch speedup: %s\n\n" (versus cold warm);
  Printf.printf "  job 1  compute-hit %5.1f%%  unique-hit %5.1f%%  gate-hit %5.1f%%  gc-runs %.0f\n"
    (100.0 *. d1 "compute_hit_rate")
    (100.0 *. d1 "unique_hit_rate")
    (100.0 *. d1 "gate_hit_rate")
    (d1 "gc_runs");
  Printf.printf "  job %-2d compute-hit %5.1f%%  unique-hit %5.1f%%  gate-hit %5.1f%%  gc-runs %.0f\n"
    jobs
    (100.0 *. dn "compute_hit_rate")
    (100.0 *. dn "unique_hit_rate")
    (100.0 *. dn "gate_hit_rate")
    (dn "gc_runs");
  (* The batch ratio includes the warm batch's first job, which runs
     cold; this one compares single jobs on the warm path. *)
  Printf.printf "\n  per-job speedup (cold job / warm job): %s\n" (versus cold_job warm_job);
  metric_int "qubits" n;
  metric_int "gates" gates;
  metric_int "jobs_per_batch" jobs;
  metric_versus "warm_speedup" cold warm;
  metric_versus "warm_job_speedup" cold_job warm_job;
  metric_float "job1_compute_hit_rate" (d1 "compute_hit_rate");
  metric_float "jobN_compute_hit_rate" (dn "compute_hit_rate");
  metric_float "job1_unique_hit_rate" (d1 "unique_hit_rate");
  metric_float "jobN_unique_hit_rate" (dn "unique_hit_rate");
  metric_float "job1_gate_hit_rate" (d1 "gate_hit_rate");
  metric_float "jobN_gate_hit_rate" (dn "gate_hit_rate");
  metric_int "job1_gc_runs" (int_of_float (d1 "gc_runs"));
  metric_int "jobN_gc_runs" (int_of_float (dn "gc_runs"));
  if warm.Stats.min >= cold.Stats.min then begin
    Printf.eprintf
      "E22 FAILED: fastest warm session batch (%.2f ms) is not faster than cold (%.2f ms)\n"
      (warm.Stats.min /. 1e6) (cold.Stats.min /. 1e6);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E23: serve — HTTP/JSONL job throughput, tail latency, warm sessions *)
(* ------------------------------------------------------------------ *)

(* The serving layer's headline numbers: jobs/sec and p50/p99 latency
   through the full HTTP path (socket → queue → worker domain → session
   engine → response), measured with the in-tree load generator against
   an in-process server on an ephemeral port.  The gate reruns e22's
   warm-vs-cold comparison END TO END: the same Clifford+T workload
   driven over HTTP with per-client warm sessions must strictly beat
   the sessionless path, where every request pays engine create/close —
   if serving overhead ever swallows the session win, this fails. *)

let e23 ~smoke () =
  header "E23" "Serve: HTTP job throughput, tail latency, and warm sessions";
  let clients = if smoke then 4 else 6 in
  let jobs_per_client = if smoke then 10 else 40 in
  let n = if smoke then 6 else 7 in
  let gates = if smoke then 120 else 180 in
  let qasm =
    Qdt.Circuit.Qasm.to_string
      (Generators.random_clifford_t ~seed:13 ~gates ~t_fraction:0.25 n)
  in
  let t =
    Qdt_serve.Server.start
      {
        Qdt_serve.Server.default_config with
        port = 0;
        workers = 2;
        queue_depth = 256;
        access_log = None;
      }
  in
  Fun.protect ~finally:(fun () -> Qdt_serve.Server.stop t) @@ fun () ->
  let port = Qdt_serve.Server.port t in
  let load ?(mix = [ `Sample; `Expectation; `Amplitude ]) ~use_sessions () =
    Qdt_serve.Loadgen.run ~port ~use_sessions ~mix ~qasm ~clients
      ~jobs_per_client ()
  in
  (* Throughput and tails: mixed job kinds on warm per-client sessions. *)
  let s = load ~use_sessions:true () in
  print_endline ("  " ^ Qdt_serve.Loadgen.pp_summary s);
  if s.Qdt_serve.Loadgen.failed > 0 then begin
    Printf.eprintf "E23 FAILED: %d jobs failed under load\n"
      s.Qdt_serve.Loadgen.failed;
    exit 1
  end;
  (* Warm vs cold over HTTP: one loadgen batch per call, with one job
     kind so the batches are identical apart from session reuse. *)
  let batch ~use_sessions () =
    let r = load ~mix:[ `Amplitude ] ~use_sessions () in
    if r.Qdt_serve.Loadgen.failed > 0 then begin
      Printf.eprintf "E23 FAILED: jobs failed during warm/cold timing\n";
      exit 1
    end
  in
  (* Per-request latency through the whole stack: one HTTP round trip
     per call, warm session vs sessionless. *)
  let c = Qdt_serve.Client.connect ~host:"127.0.0.1" ~port in
  Fun.protect ~finally:(fun () -> Qdt_serve.Client.close c) @@ fun () ->
  let body ~session =
    Printf.sprintf "{\"qasm\": %s, \"backend\": \"decision-diagrams\"%s, \"job\": {\"kind\": \"amplitude\", \"index\": 0}}"
      (Qdt.Obs.Json.string qasm)
      (match session with
      | Some s -> Printf.sprintf ", \"session\": \"%s\"" s
      | None -> "")
  in
  let post body =
    match Qdt_serve.Client.post c ~path:"/v1/jobs" ~body with
    | Ok (200, _) -> ()
    | Ok (status, resp) ->
        failwith (Printf.sprintf "e23: HTTP %d: %s" status resp)
    | Error e -> failwith ("e23: connection error: " ^ e)
  in
  let warm_body = body ~session:(Some "bench") and cold_body = body ~session:None in
  post warm_body (* prime the warm session *);
  run_timings ~name:"e23"
    [
      bench "loadgen-cold" (batch ~use_sessions:false);
      bench "loadgen-warm" (batch ~use_sessions:true);
      bench "http-job-cold" (fun () -> post cold_body);
      bench "http-job-warm" (fun () -> post warm_body);
    ];
  let cold = timing "e23" "loadgen-cold" and warm = timing "e23" "loadgen-warm" in
  Printf.printf
    "\nworkload: random Clifford+T, n=%d, %d gates; %d clients x %d jobs (%d interleaved reps)\n\n"
    n gates clients jobs_per_client !reps_flag;
  Printf.printf "  cold (no session: engine per request)  %9.2f ms\n" (ms cold);
  Printf.printf "  warm (per-client session reuse)        %9.2f ms\n" (ms warm);
  Printf.printf "  speedup: %s\n" (versus cold warm);
  metric_int "qubits" n;
  metric_int "gates" gates;
  metric_int "clients" clients;
  metric_int "jobs_per_client" jobs_per_client;
  metric_float "jobs_per_s" s.Qdt_serve.Loadgen.jobs_per_s;
  metric_int "p50_ns" s.Qdt_serve.Loadgen.p50_ns;
  metric_int "p99_ns" s.Qdt_serve.Loadgen.p99_ns;
  metric_int "max_ns" s.Qdt_serve.Loadgen.max_ns;
  metric_int "retried_429" s.Qdt_serve.Loadgen.retried_429;
  metric_versus "warm_speedup" cold warm;
  if warm.Stats.min >= cold.Stats.min then begin
    Printf.eprintf
      "E23 FAILED: fastest warm-session serving batch (%.2f ms) is not faster than cold (%.2f ms)\n"
      (warm.Stats.min /. 1e6) (cold.Stats.min /. 1e6);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments : (string * (smoke:bool -> unit)) list =
  [
    ("e1", fun ~smoke:_ -> e1 ());
    ("e2", fun ~smoke:_ -> e2 ());
    ("e3", fun ~smoke:_ -> e3 ());
    ("e4", fun ~smoke:_ -> e4 ());
    ("e5", fun ~smoke:_ -> e5 ());
    ("e6", fun ~smoke:_ -> e6 ());
    ("e7", fun ~smoke:_ -> e7 ());
    ("e8", fun ~smoke:_ -> e8 ());
    ("e8b", fun ~smoke:_ -> e8b ());
    ("e9", fun ~smoke:_ -> e9 ());
    ("e9b", fun ~smoke:_ -> e9b ());
    ("e10", fun ~smoke:_ -> e10 ());
    ("e11", fun ~smoke:_ -> e11 ());
    ("e12", fun ~smoke:_ -> e12 ());
    ("e13", fun ~smoke:_ -> e13 ());
    ("e14", fun ~smoke:_ -> e14 ());
    ("e15", fun ~smoke:_ -> e15 ());
    ("e16", fun ~smoke -> e16 ~smoke ());
    ("e17", fun ~smoke -> e17 ~smoke ());
    ("e18", fun ~smoke -> e18 ~smoke ());
    ("e19", fun ~smoke -> e19 ~smoke ());
    ("e20", fun ~smoke -> e20 ~smoke ());
    ("e21", fun ~smoke -> e21 ~smoke ());
    ("e22", fun ~smoke -> e22 ~smoke ());
    ("e23", fun ~smoke -> e23 ~smoke ());
  ]

(* ------------------------------------------------------------------ *)
(* Baseline gate                                                       *)
(* ------------------------------------------------------------------ *)

let baseline_dir = "bench" ^ Filename.dir_sep ^ "baselines"
let baseline_path id = Filename.concat baseline_dir (id ^ ".json")

let current_baseline ~experiment ~smoke =
  {
    Baseline.experiment;
    smoke;
    timings =
      List.rev_map
        (fun (label, s) -> { Baseline.label; timing = s })
        !json_timings;
  }

(* Returns [Some reason] when the experiment regressed (or cannot be
   gated when it should be), [None] when it passes. *)
let compare_against_baseline ~experiment ~smoke =
  let path = baseline_path experiment in
  match Baseline.read ~path with
  | Error msg ->
      Printf.printf "\n[%s] no usable baseline: %s\n" experiment msg;
      Printf.printf "  run with --update-baselines to record one\n";
      Some "missing baseline"
  | Ok base ->
      if base.Baseline.smoke <> smoke then begin
        Printf.printf
          "\n[%s] baseline is a %s run but this is a %s run — comparison skipped\n"
          experiment
          (if base.Baseline.smoke then "smoke" else "full")
          (if smoke then "smoke" else "full");
        None
      end
      else begin
        let cmp =
          Baseline.compare ~baseline:base
            ~current:(current_baseline ~experiment ~smoke)
            ()
        in
        Printf.printf
          "\n[%s] vs %s (gate: fastest sample > max(median × %.2g, median + %g·MAD)):\n"
          experiment path Baseline.default_min_ratio Baseline.default_mad_k;
        print_string (Baseline.render cmp);
        (* A baselined timing this run did not produce fails: otherwise a
           renamed or dropped label would silently lose its gate. *)
        if cmp.Baseline.any_regressed then Some "timing regression"
        else if cmp.Baseline.only_in_baseline <> [] then
          Some ("baselined timing not measured: " ^ String.concat ", " cmp.Baseline.only_in_baseline)
        else None
      end

let update_baseline ~experiment ~smoke =
  if not (Sys.file_exists baseline_dir) then Sys.mkdir baseline_dir 0o755;
  let path = baseline_path experiment in
  Baseline.write ~path (current_baseline ~experiment ~smoke);
  Printf.printf "wrote baseline %s\n" path

let usage () =
  Printf.eprintf
    "usage: bench [EXPERIMENT...] [--smoke] [--reps N] [--jobs N] [--compare] [--update-baselines]\n\
     known experiments: %s\n"
    (String.concat " " (List.map fst experiments))

let () =
  let smoke = ref false in
  let compare_ = ref false in
  let update = ref false in
  let reps = ref None in
  let selected = ref [] in
  let argc = Array.length Sys.argv in
  let i = ref 1 in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--smoke" -> smoke := true
    | "--compare" -> compare_ := true
    | "--update-baselines" -> update := true
    | "--reps" ->
        incr i;
        (match if !i < argc then int_of_string_opt Sys.argv.(!i) else None with
        | Some n when n >= 1 -> reps := Some n
        | _ ->
            Printf.eprintf "--reps needs an integer argument >= 1\n";
            exit 2)
    | "--jobs" ->
        incr i;
        (match if !i < argc then int_of_string_opt Sys.argv.(!i) else None with
        | Some n when n >= 1 -> Qdt.Par.set_jobs n
        | _ ->
            Printf.eprintf "--jobs needs an integer argument >= 1\n";
            exit 2)
    | name when List.mem_assoc name experiments -> selected := name :: !selected
    | name ->
        Printf.eprintf "unknown argument %S\n" name;
        usage ();
        exit 2);
    incr i
  done;
  reps_flag := (match !reps with Some n -> n | None -> if !smoke then 3 else 5);
  let to_run =
    if !selected = [] then experiments
    else List.filter (fun (name, _) -> List.mem name !selected) experiments
  in
  print_endline "QDT benchmark harness — experiments E1..E23 (see DESIGN.md / EXPERIMENTS.md)";
  Printf.printf "timing: %d reps per measurement (median ± MAD)\n" !reps_flag;
  let failures = ref [] in
  List.iter
    (fun (name, fn) ->
      json_timings := [];
      json_metrics := [];
      (* Per-experiment Qdt_obs accounting: the registry totals are
         embedded into BENCH_<id>.json by [write_json].  (E17/E21 toggle
         the flags themselves to measure the disabled path.)  Each
         experiment runs inside a Report bracket so its BENCH JSON carries
         the same run-report artifact `qdt simulate --report` emits. *)
      Qdt.Obs.Metrics.set_enabled true;
      Qdt.Obs.Metrics.reset ();
      let rep = Qdt.Obs.Report.start () in
      fn ~smoke:!smoke;
      write_json ~experiment:name ~smoke:!smoke
        ~report:(Qdt.Obs.Report.finish rep);
      if !update then update_baseline ~experiment:name ~smoke:!smoke
      else if !compare_ then
        match compare_against_baseline ~experiment:name ~smoke:!smoke with
        | Some reason -> failures := (name, reason) :: !failures
        | None -> ())
    to_run;
  print_endline "\nAll experiments complete.";
  match List.rev !failures with
  | [] -> ()
  | failures ->
      List.iter
        (fun (name, reason) ->
          Printf.eprintf "PERF GATE FAILED: %s (%s)\n" name reason)
        failures;
      exit 1
