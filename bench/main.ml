(* Benchmark harness: regenerates every figure/example of the paper (E1-E4)
   and every qualitative claim of its survey (E5-E10) as measurable tables.
   Experiment ids follow DESIGN.md; measured-vs-paper is recorded in
   EXPERIMENTS.md.

   Run with:  dune exec bench/main.exe                 (all experiments)
              dune exec bench/main.exe -- e16          (one experiment)
              dune exec bench/main.exe -- e16 --smoke  (small sizes, CI)
              dune exec bench/main.exe -- e18 --smoke --reps 3 --compare
                                        (gate against bench/baselines/)

   Every timing is measured --reps times (default 5, 3 under --smoke)
   and summarised as {median, mad, min, max, reps} — Qdt_obs.Stats —
   so BENCH_<id>.json carries a noise model, not one number.  --compare
   diffs the summaries against the committed bench/baselines/<id>.json
   with a MAD-scaled threshold (Qdt_obs.Baseline) and exits nonzero on
   regression; --update-baselines blesses the current run instead.

   Each experiment additionally writes machine-readable results to
   BENCH_<id>.json in the working directory: every timing summary, any
   experiment-specific metrics (e.g. e16's GC counters), and the full
   Qdt_obs metrics registry accumulated while the experiment ran. *)

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

(* Timing repetitions per test; the driver sets this from --reps (default
   5, or 3 under --smoke).  e17/e18's internal best-of loops use it too. *)
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

(* Each timing is sampled [!reps_flag] times and summarised by
   median/MAD (Qdt_obs.Stats) — robust against the heavy-tailed noise of
   preemption and GC.  Fast thunks are batched so a sample is never
   dominated by clock granularity: after the warm-up, [calibrate] times
   up to [calibration_probes] single calls and takes the smallest
   power-of-two batch whose median call reaches 1 ms, so no single noisy
   call decides how many calls each sample averages.  Probing stops once
   the probes have taken 10 ms in all: a thunk that slow runs in batches
   of one either way.  Each sample is then batch time / batch size. *)

let calibration_target_ns = 1_000_000
let calibration_probes = 7
let max_batch = 65_536

let time_batch fn iters =
  let t0 = Qdt.Obs.Clock.now_ns () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (fn ()))
  done;
  Qdt.Obs.Clock.elapsed_ns t0

let calibrate fn =
  let rec probe acc spent =
    if List.length acc >= calibration_probes || spent >= 10 * calibration_target_ns then acc
    else
      let dt = time_batch fn 1 in
      probe (float_of_int dt :: acc) (spent + dt)
  in
  let per_call = Stats.median (Array.of_list (probe [] 0)) in
  let target = float_of_int calibration_target_ns in
  let iters = ref 1 in
  while float_of_int !iters *. per_call < target && !iters < max_batch do
    iters := !iters * 2
  done;
  !iters

let measure_summary ~reps fn =
  ignore (Sys.opaque_identity (fn ())) (* warm up *);
  let iters = calibrate fn in
  let samples =
    Array.init (max 1 reps) (fun _ ->
        float_of_int (time_batch fn iters) /. float_of_int iters)
  in
  (Stats.summary samples, iters)

(* Best-of-[reps] wall time of one [body] call, in ns: the minimum damps
   scheduler noise, so two configurations of one run compare fairly. *)
let best_of ~reps body =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Qdt.Obs.Clock.now_ns () in
    body ();
    best := Float.min !best (float_of_int (Qdt.Obs.Clock.elapsed_ns t0))
  done;
  !best

let pretty_ns ns =
  if ns > 1e9 then Printf.sprintf "%8.3f s " (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
  else Printf.sprintf "%8.1f ns" ns

let run_timings ~name tests =
  List.iter
    (fun (test_name, fn) ->
      let label = name ^ "/" ^ test_name in
      let s, iters = measure_summary ~reps:!reps_flag fn in
      json_timings := (label, s) :: !json_timings;
      Printf.printf "  %-44s %s  ± %-10s (%d reps × %d)\n" label
        (pretty_ns s.Stats.median)
        (String.trim (pretty_ns s.Stats.mad))
        s.Stats.reps iters)
    tests

let bench name fn = (name, fun () -> fn ())

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
  let t0 = Qdt.Obs.Clock.now_ns () in
  ignore (Circuit.execute c ~rng:(Random.State.make [| 0 |]) (Qdt.Dd.Sim.apply_instruction st));
  let wall = Qdt.Obs.Clock.ns_to_s (Qdt.Obs.Clock.elapsed_ns t0) in
  let stats = Qdt.Dd.Pkg.cache_stats mgr in
  let rate h l = if l = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int l in
  ( wall,
    stats,
    Qdt.Dd.Pkg.peak_unique_table_size mgr,
    Qdt.Dd.Pkg.unique_table_size mgr,
    Qdt.Dd.Pkg.cnum_live_entries mgr,
    rate stats.Qdt.Dd.Pkg.compute_hits stats.Qdt.Dd.Pkg.compute_lookups )

let e16 ~smoke () =
  header "E16" "DD memory management: mark-and-sweep GC bounds deep simulations";
  let workloads =
    if smoke then
      [
        ("clifford-t-deep", Generators.random_clifford_t ~seed:7 ~gates:400 ~t_fraction:0.2 8);
        ("qft", Generators.qft 10);
      ]
    else
      [
        (* ~100 layers of one gate per qubit *)
        ("clifford-t-deep", Generators.random_clifford_t ~seed:7 ~gates:1200 ~t_fraction:0.2 12);
        ("qft", Generators.qft 16);
      ]
  in
  let gc_threshold = if smoke then 1024 else 8192 in
  Printf.printf "gc threshold: %d unique-table entries (0 = collection off)\n\n" gc_threshold;
  Printf.printf "%18s | %6s | %9s | %10s | %8s | %9s | %9s | %7s\n" "workload" "gc"
    "wall (ms)" "peak nodes" "final" "collected" "cnum live" "cache%";
  List.iter
    (fun (name, c) ->
      let report tag threshold =
        let wall, stats, peak, final, cnum_live, cache_pct = e16_run ~gc_threshold:threshold c in
        Printf.printf "%18s | %6s | %9.2f | %10d | %8d | %9d | %9d | %6.1f%%\n" name tag
          (1000.0 *. wall) peak final stats.Qdt.Dd.Pkg.nodes_collected cnum_live cache_pct;
        let m key v = metric_int (Printf.sprintf "%s.%s.%s" name tag key) v in
        metric_float (Printf.sprintf "%s.%s.wall_ms" name tag) (1000.0 *. wall);
        m "peak_unique_table" peak;
        m "final_unique_table" final;
        m "gc_runs" stats.Qdt.Dd.Pkg.gc_runs;
        m "nodes_collected" stats.Qdt.Dd.Pkg.nodes_collected;
        m "cnums_collected" stats.Qdt.Dd.Pkg.cnums_collected;
        m "cnum_live_entries" cnum_live;
        metric_float (Printf.sprintf "%s.%s.compute_hit_pct" name tag) cache_pct;
        (wall, peak, final)
      in
      let _, peak_off, _ = report "off" 0 in
      let _, peak_on, final_on = report "on" gc_threshold in
      Printf.printf
        "  -> GC bounds the table to %.1fx the final live size (unbounded peak: %.1fx)\n"
        (float_of_int peak_on /. float_of_int (max 1 final_on))
        (float_of_int peak_off /. float_of_int (max 1 final_on)))
    workloads;
  let deep = List.assoc "clifford-t-deep" workloads in
  run_timings ~name:"e16"
    [
      bench "deep-clifford-t-gc-off" (fun () -> ignore (e16_run ~gc_threshold:0 deep));
      bench "deep-clifford-t-gc-on" (fun () -> ignore (e16_run ~gc_threshold deep));
    ]

(* ------------------------------------------------------------------ *)
(* E17: observability overhead — traced vs untraced simulation         *)
(* ------------------------------------------------------------------ *)

(* The observability contract (DESIGN.md): a disabled instrumentation site
   costs one flag check.  This experiment measures three things on a deep
   Clifford+T DD simulation:
     1. wall time with both subsystems disabled (the shipping default),
     2. wall time with metrics enabled,
     3. wall time with tracing enabled;
   and then bounds the *disabled-mode* overhead directly: the per-call
   cost of a disabled primitive (measured in a tight loop) times the
   number of instrumentation calls the run executes (counted by running
   once with metrics on).  The experiment FAILS if that bound exceeds 2%
   of the untraced runtime. *)

let e17_overhead_budget_pct = 2.0

let e17 ~smoke () =
  header "E17" "Observability overhead: traced vs untraced deep Clifford+T";
  let n = if smoke then 8 else 10 in
  let gates = if smoke then 400 else 2000 in
  let c = Generators.random_clifford_t ~seed:11 ~gates ~t_fraction:0.2 n in
  let reps = !reps_flag in
  let run_once () =
    let st = Qdt.Dd.Sim.make (Qdt.Dd.Pkg.create ()) (Circuit.num_qubits c) in
    ignore (Circuit.execute c ~rng:(Random.State.make [| 0 |]) (Qdt.Dd.Sim.apply_instruction st))
  in
  (* Both subsystems off: the shipping default and the e17 baseline. *)
  Qdt.Obs.Metrics.set_enabled false;
  Qdt.Obs.Trace.set_enabled false;
  run_once () (* warm up *);
  let t_disabled = best_of ~reps run_once in
  (* Metrics on. *)
  Qdt.Obs.Metrics.set_enabled true;
  let t_metrics = best_of ~reps run_once in
  (* Count the instrumentation calls one run executes: per instruction one
     counter increment plus a begin/end span bracket, and per compute-cache
     probe a lookup increment plus (on hit) a hit increment. *)
  Qdt.Obs.Metrics.reset ();
  run_once ();
  let instr_sites = counted "dd.gates" + counted "dd.measurements" in
  let ops_per_run =
    (3 * instr_sites) + counted "dd.cache.lookups" + counted "dd.cache.hits"
    + (4 * counted "dd.gc.runs")
  in
  Qdt.Obs.Metrics.set_enabled false;
  (* Tracing on (ring sized so nothing wraps mid-measurement). *)
  Qdt.Obs.Trace.configure ~capacity:(1 lsl 18) ();
  Qdt.Obs.Trace.set_enabled true;
  let t_traced = best_of ~reps run_once in
  Qdt.Obs.Trace.set_enabled false;
  Qdt.Obs.Trace.clear ();
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
  let disabled_bound_pct =
    100.0 *. (float_of_int ops_per_run *. per_op_ns) /. t_disabled
  in
  let pct t = 100.0 *. ((t -. t_disabled) /. t_disabled) in
  Printf.printf "workload: random Clifford+T, n=%d, %d gates (DD backend, %d reps, best-of)\n\n"
    n gates reps;
  Printf.printf "  untraced (obs disabled)   %9.2f ms\n" (t_disabled /. 1e6);
  Printf.printf "  metrics enabled           %9.2f ms  (%+.2f%%)\n" (t_metrics /. 1e6) (pct t_metrics);
  Printf.printf "  trace enabled             %9.2f ms  (%+.2f%%)\n" (t_traced /. 1e6) (pct t_traced);
  Printf.printf "\n  instrumentation calls per run: %d (%.1f per gate)\n" ops_per_run
    (float_of_int ops_per_run /. float_of_int (max 1 instr_sites));
  Printf.printf "  disabled primitive cost: %.2f ns/call\n" per_op_ns;
  Printf.printf "  disabled-mode overhead bound: %.3f%% of untraced wall (budget: %.1f%%)\n"
    disabled_bound_pct e17_overhead_budget_pct;
  metric_float "untraced_wall_ms" (t_disabled /. 1e6);
  metric_float "metrics_wall_ms" (t_metrics /. 1e6);
  metric_float "traced_wall_ms" (t_traced /. 1e6);
  metric_float "metrics_overhead_pct" (pct t_metrics);
  metric_float "traced_overhead_pct" (pct t_traced);
  metric_int "instrumentation_calls_per_run" ops_per_run;
  metric_float "disabled_per_call_ns" per_op_ns;
  metric_float "disabled_overhead_bound_pct" disabled_bound_pct;
  metric_float "disabled_overhead_budget_pct" e17_overhead_budget_pct;
  if disabled_bound_pct > e17_overhead_budget_pct then begin
    Printf.eprintf
      "E17 FAILED: disabled-mode observability overhead bound %.3f%% exceeds the %.1f%% budget\n"
      disabled_bound_pct e17_overhead_budget_pct;
    exit 1
  end;
  Qdt.Obs.Metrics.set_enabled true;
  run_timings ~name:"e17"
    [
      bench "deep-clifford-t-untraced" (fun () ->
          Qdt.Obs.Metrics.set_enabled false;
          Qdt.Obs.Trace.set_enabled false;
          run_once ());
      bench "deep-clifford-t-metrics" (fun () ->
          Qdt.Obs.Metrics.set_enabled true;
          run_once ());
    ]

(* ------------------------------------------------------------------ *)
(* E18: unboxed numeric substrate — boxed vs flat-float kernels        *)
(* ------------------------------------------------------------------ *)

(* The tentpole claim of the unboxed substrate refactor: storing
   amplitudes as one flat interleaved float array (instead of an array of
   boxed Cx.t records) makes the statevector and MPS hot paths both
   faster and allocation-free per gate.  This experiment runs the e16/e17
   workloads plus a QFT and a nearest-neighbour MPS ansatz through the
   current engines AND through the retained boxed reference
   implementations (test/ref, linked as qdt_ref), measuring best-of-reps
   wall time and GC minor words per gate for each.  The experiment FAILS
   if the unboxed statevector is slower than the boxed one anywhere. *)

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

(* Best-of-reps wall time plus minor-words-per-run for [run].  Allocation
   is measured on a dedicated run (after warmup) so bechamel-style timing
   noise cannot leak into the GC delta. *)
let e18_measure ~reps run =
  ignore (run ()) (* warm up *);
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Qdt.Obs.Clock.now_ns () in
    ignore (run ());
    best := Float.min !best (float_of_int (Qdt.Obs.Clock.elapsed_ns t0))
  done;
  let w0 = Gc.minor_words () in
  ignore (run ());
  let minor = Gc.minor_words () -. w0 in
  (!best, minor)

let e18 ~smoke () =
  header "E18" "Unboxed numeric substrate: boxed vs flat-float engines";
  let reps = !reps_flag in
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
  Printf.printf "%16s | %12s | %12s | %7s | %13s | %13s | %6s\n" "workload"
    "boxed (ms)" "unboxed (ms)" "speedup" "boxed w/gate" "unbox w/gate" "alloc/";
  let min_speedup = ref infinity in
  List.iter
    (fun (name, c) ->
      let gates = float_of_int (max 1 (Circuit.count_total c)) in
      let boxed_ns, boxed_minor =
        e18_measure ~reps (fun () -> Qdt_ref.Sv_ref.run_unitary c)
      in
      let unboxed_ns, unboxed_minor =
        e18_measure ~reps (fun () -> Qdt.Arrays.Statevector.run_unitary c)
      in
      let speedup = boxed_ns /. unboxed_ns in
      let boxed_wpg = boxed_minor /. gates and unboxed_wpg = unboxed_minor /. gates in
      let alloc_reduction = boxed_wpg /. Float.max unboxed_wpg 1e-9 in
      min_speedup := Float.min !min_speedup speedup;
      Printf.printf "%16s | %12.3f | %12.3f | %6.2fx | %13.0f | %13.1f | %5.0fx\n" name
        (boxed_ns /. 1e6) (unboxed_ns /. 1e6) speedup boxed_wpg unboxed_wpg
        alloc_reduction;
      let m key v = metric_float (Printf.sprintf "sv.%s.%s" name key) v in
      m "boxed_wall_ms" (boxed_ns /. 1e6);
      m "unboxed_wall_ms" (unboxed_ns /. 1e6);
      m "speedup" speedup;
      m "boxed_minor_words_per_gate" boxed_wpg;
      m "unboxed_minor_words_per_gate" unboxed_wpg;
      m "minor_words_reduction" alloc_reduction;
      metric_int (Printf.sprintf "sv.%s.gates" name) (int_of_float gates))
    sv_workloads;
  (* MPS: same comparison through the boxed reference two-qubit/SVD path. *)
  let mps_n = if smoke then 8 else 12 in
  let mps_layers = if smoke then 3 else 6 in
  let mps_c = e18_mps_ansatz ~layers:mps_layers mps_n in
  let max_bond = 32 in
  let mps_gates = float_of_int (max 1 (Circuit.count_total mps_c)) in
  let boxed_ns, boxed_minor =
    e18_measure ~reps (fun () -> Qdt_ref.Mps_ref.run ~max_bond mps_c)
  in
  let unboxed_ns, unboxed_minor =
    e18_measure ~reps (fun () -> Qdt.Tensornet.Mps.run ~max_bond mps_c)
  in
  let speedup = boxed_ns /. unboxed_ns in
  let boxed_wpg = boxed_minor /. mps_gates and unboxed_wpg = unboxed_minor /. mps_gates in
  Printf.printf "%16s | %12.3f | %12.3f | %6.2fx | %13.0f | %13.0f | %5.1fx\n"
    (Printf.sprintf "mps-ansatz-%d" mps_n)
    (boxed_ns /. 1e6) (unboxed_ns /. 1e6) speedup boxed_wpg unboxed_wpg
    (boxed_wpg /. Float.max unboxed_wpg 1e-9);
  metric_float "mps.boxed_wall_ms" (boxed_ns /. 1e6);
  metric_float "mps.unboxed_wall_ms" (unboxed_ns /. 1e6);
  metric_float "mps.speedup" speedup;
  metric_float "mps.boxed_minor_words_per_gate" boxed_wpg;
  metric_float "mps.unboxed_minor_words_per_gate" unboxed_wpg;
  metric_int "mps.num_qubits" mps_n;
  metric_int "mps.gates" (int_of_float mps_gates);
  metric_float "min_sv_speedup" !min_speedup;
  Printf.printf "\n  minimum statevector speedup: %.2fx (guard: must be >= 1)\n"
    !min_speedup;
  if !min_speedup < 1.0 then begin
    Printf.eprintf
      "E18 FAILED: unboxed statevector is slower than the boxed baseline (%.2fx)\n"
      !min_speedup;
    exit 1
  end;
  let deep = List.assoc "clifford-t-deep" sv_workloads in
  run_timings ~name:"e18"
    [
      bench "sv-boxed" (fun () -> ignore (Qdt_ref.Sv_ref.run_unitary deep));
      bench "sv-unboxed" (fun () -> ignore (Qdt.Arrays.Statevector.run_unitary deep));
      bench "mps-boxed" (fun () -> ignore (Qdt_ref.Mps_ref.run ~max_bond mps_c));
      bench "mps-unboxed" (fun () -> ignore (Qdt.Tensornet.Mps.run ~max_bond mps_c));
    ]

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

let e19_measure_all c =
  let n = Circuit.num_qubits c in
  let base =
    List.fold_left
      (fun acc i -> Circuit.add i acc)
      (Circuit.empty n ~clbits:n)
      (Circuit.instructions c)
  in
  let rec go q acc =
    if q >= n then acc else go (q + 1) (Circuit.measure ~qubit:q ~clbit:q acc)
  in
  go 0 base

let e19 ~smoke () =
  header "E19" "Dynamic circuits: static sampling path vs per-shot execution";
  let shots = if smoke then 200 else 2000 in
  let n = if smoke then 8 else 12 in
  let static_unitary = Generators.ghz n in
  let static_final = e19_measure_all static_unitary in
  let teleport = Generators.teleportation () in
  let rus = Generators.repeat_until_success ~rounds:3 () in
  let repetition = Generators.repetition_code ~cycles:(if smoke then 1 else 3) () in
  let sample backend c () = ignore (Qdt.sample ~backend ~seed:5 ~shots c) in
  let workloads =
    [
      ("ghz-unitary-arrays", Qdt.Arrays_backend, static_unitary);
      ("ghz-measured-arrays", Qdt.Arrays_backend, static_final);
      ("ghz-measured-dd", Qdt.Decision_diagrams, static_final);
      ("teleport-arrays", Qdt.Arrays_backend, teleport);
      ("teleport-dd", Qdt.Decision_diagrams, teleport);
      ("teleport-stabilizer", Qdt.Stabilizer_backend, teleport);
      ("rus-arrays", Qdt.Arrays_backend, rus);
      ("repetition-stabilizer", Qdt.Stabilizer_backend, repetition);
    ]
  in
  Printf.printf "%24s | %12s | %12s | %7s\n" "workload" "wall (ms)"
    "shots/sec" "dynamic";
  let throughput = ref [] in
  List.iter
    (fun (wname, backend, c) ->
      let best_ns, _minor = e18_measure ~reps:!reps_flag (sample backend c) in
      let sps = float_of_int shots /. (best_ns /. 1e9) in
      throughput := (wname, sps) :: !throughput;
      Printf.printf "%24s | %12.3f | %12.0f | %7s\n" wname (best_ns /. 1e6) sps
        (if Circuit.is_dynamic c then "yes" else "-");
      metric_float (wname ^ ".wall_ms") (best_ns /. 1e6);
      metric_float (wname ^ ".shots_per_sec") sps)
    workloads;
  (* Headline number: how much the per-shot path costs relative to the
     simulate-once-then-sample path on the same backend. *)
  (match
     ( List.assoc_opt "ghz-measured-arrays" !throughput,
       List.assoc_opt "teleport-arrays" !throughput )
   with
  | Some static_sps, Some dyn_sps when dyn_sps > 0.0 ->
      let ratio = static_sps /. dyn_sps in
      Printf.printf
        "\n  arrays static-path / per-shot-path throughput: %.1fx\n" ratio;
      metric_float "arrays.static_over_dynamic_ratio" ratio
  | _ -> ());
  metric_int "shots" shots;
  metric_int "ghz_qubits" n;
  run_timings ~name:"e19"
    [
      bench "ghz-measured-arrays" (sample Qdt.Arrays_backend static_final);
      bench "teleport-arrays" (sample Qdt.Arrays_backend teleport);
      bench "teleport-dd" (sample Qdt.Decision_diagrams teleport);
      bench "repetition-stabilizer" (sample Qdt.Stabilizer_backend repetition);
    ]

(* ------------------------------------------------------------------ *)
(* E20: multicore scaling — speedup vs. domain count                   *)
(* ------------------------------------------------------------------ *)

(* Three workload shapes across the Qdt_par substrate: a 20+-qubit
   statevector gate sweep (kernel chunking), a 1000-trajectory noise run
   (trajectory blocks), and dynamic per-shot sampling (split RNG
   streams).  Each is timed at jobs ∈ {1, 2, 4}; jobs = 1 is the serial
   reference.  The gate scales with the machine: on >= 4 cores it
   demands real speedup at 4 domains, on fewer cores (where 4 domains
   oversubscribe them) it only guards against sub-linear collapse —
   parallel overhead must not eat more than a bounded fraction of the
   serial time.  The jobs = 2 and jobs = 4 sampled counts are asserted
   identical, pinning the split-stream determinism contract. *)

let e20_job_counts = [ 1; 2; 4 ]

let e20_measure_at jobs run =
  Qdt.Par.set_jobs jobs;
  let best_ns, _minor = e18_measure ~reps:!reps_flag run in
  best_ns

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
  let workloads =
    [
      ( "sweep",
        fun () -> ignore (Qdt.Arrays.Statevector.run_unitary sweep_c) );
      ( "trajectories",
        fun () ->
          ignore
            (Qdt.Arrays.Trajectories.average_probabilities ~seed:3 ~noise
               ~trajectories traj_c) );
      ( "dynamic-shots",
        fun () ->
          ignore (Qdt.sample ~backend:Qdt.Arrays_backend ~seed:5 ~shots teleport) );
    ]
  in
  Printf.printf "recommended domain count: %d\n" cores;
  if cores < 2 then print_endline "one core: no speedup ratio is recorded as a scaling claim";
  Printf.printf "%16s | %12s | %12s | %12s | %8s | %8s\n" "workload" "jobs=1 (ms)"
    "jobs=2 (ms)" "jobs=4 (ms)" "x @2" "x @4";
  let speedups = ref [] in
  List.iter
    (fun (wname, run) ->
      let times = List.map (fun j -> (j, e20_measure_at j run)) e20_job_counts in
      let t1 = List.assoc 1 times in
      List.iter
        (fun (j, t) ->
          metric_float (Printf.sprintf "%s.jobs%d_wall_ms" wname j) (t /. 1e6);
          (* One core cannot speed anything up: a ratio there measures
             pool overhead, so it is not recorded as a scaling claim. *)
          if j > 1 && cores >= 2 then
            metric_float (Printf.sprintf "%s.speedup%d" wname j) (t1 /. t))
        times;
      let t2 = List.assoc 2 times and t4 = List.assoc 4 times in
      speedups := (wname, t1 /. t4) :: !speedups;
      Printf.printf "%16s | %12.3f | %12.3f | %12.3f | %7.2fx | %7.2fx\n" wname
        (t1 /. 1e6) (t2 /. 1e6) (t4 /. 1e6) (t1 /. t2) (t1 /. t4))
    workloads;
  metric_int "cores" cores;
  metric_int "sweep_qubits" sweep_n;
  metric_int "trajectories" trajectories;
  metric_int "shots" shots;
  (* Determinism pin: identical dynamic counts at every parallel job
     count (the jobs >= 2 contract; jobs = 1 keeps the legacy stream). *)
  Qdt.Par.set_jobs 2;
  let counts2 = Qdt.sample ~backend:Qdt.Arrays_backend ~seed:5 ~shots teleport in
  Qdt.Par.set_jobs 4;
  let counts4 = Qdt.sample ~backend:Qdt.Arrays_backend ~seed:5 ~shots teleport in
  if counts2 <> counts4 then begin
    Printf.eprintf "E20 FAILED: dynamic counts differ between jobs=2 and jobs=4\n";
    exit 1
  end;
  Printf.printf "\n  jobs=2 and jobs=4 dynamic counts: identical (determinism pin)\n";
  (* Scaling gate. *)
  let demand wname floor =
    let s = List.assoc wname !speedups in
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
    List.iter (fun (wname, _) -> demand wname 0.25) !speedups
  end;
  (* Baseline-gated timings: serial and 2-domain flavours of each shape.
     set_jobs inside the thunk so harness batching cannot leak a stale
     job count into the measurement. *)
  let at j run () = Qdt.Par.set_jobs j; run () in
  let sweep_run = List.assoc "sweep" workloads in
  let traj_run = List.assoc "trajectories" workloads in
  let shots_run = List.assoc "dynamic-shots" workloads in
  run_timings ~name:"e20"
    [
      bench "sweep-jobs1" (at 1 sweep_run);
      bench "sweep-jobs2" (at 2 sweep_run);
      bench "trajectories-jobs2" (at 2 traj_run);
      bench "dynamic-shots-jobs2" (at 2 shots_run);
    ];
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
        simulation a service runs. *)

let e21_report_budget_pct = 5.0

let e21 ~smoke () =
  header "E21" "Run reports: labeled-metrics + watermark + report-bracket overhead";
  let n = if smoke then 8 else 10 in
  let gates = if smoke then 400 else 2000 in
  let c = Generators.random_clifford_t ~seed:11 ~gates ~t_fraction:0.2 n in
  let reps = !reps_flag in
  let run_once () =
    let st = Qdt.Dd.Sim.make (Qdt.Dd.Pkg.create ()) (Circuit.num_qubits c) in
    ignore (Circuit.execute c ~rng:(Random.State.make [| 0 |]) (Qdt.Dd.Sim.apply_instruction st))
  in
  (* Everything off: the shipping default. *)
  Qdt.Obs.Metrics.set_enabled false;
  Qdt.Obs.Trace.set_enabled false;
  run_once () (* warm up *);
  let t_plain = best_of ~reps run_once in
  (* Labeled metrics + peaks live. *)
  Qdt.Obs.Metrics.set_enabled true;
  let t_instr = best_of ~reps run_once in
  (* The peak raises one run executes: the DD engine's one per job
     (counted even though this harness drives Sim directly, so the bound
     stays conservative).  Labeled counters in this workload fire per
     backend entry, not per gate — the per-gate counters are the
     e17-audited plain ones. *)
  let new_ops_per_run = 1 in
  Qdt.Obs.Metrics.set_enabled false;
  (* Full report bracket around every run. *)
  let t_reported =
    best_of ~reps (fun () ->
        let rep = Qdt.Obs.Report.start () in
        run_once ();
        ignore (Qdt.Obs.Report.finish rep))
  in
  (* The bracket's own cost, isolated: start/finish around an empty body,
     against the registry the instrumented runs populated.  Like e17's
     disabled-mode bound, this analytic form (bracket cost / wall) is
     immune to the run-to-run noise that swamps a direct wall comparison
     on a workload this size. *)
  let bracket_iters = 200 in
  let bracket_ns =
    best_of ~reps (fun () ->
        for _ = 1 to bracket_iters do
          let rep = Qdt.Obs.Report.start () in
          ignore (Qdt.Obs.Report.finish rep)
        done)
    /. float_of_int bracket_iters
  in
  let report_overhead_pct = 100.0 *. bracket_ns /. t_plain in
  (* Disabled per-call cost of the new primitives: a labeled counter
     increment plus a peak raise, flag off. *)
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
  let disabled_bound_pct =
    100.0 *. (float_of_int new_ops_per_run *. per_op_ns) /. t_plain
  in
  let pct t = 100.0 *. ((t -. t_plain) /. t_plain) in
  Printf.printf
    "workload: random Clifford+T, n=%d, %d gates (DD backend, %d reps, best-of)\n\n"
    n gates reps;
  Printf.printf "  plain (obs disabled)      %9.2f ms\n" (t_plain /. 1e6);
  Printf.printf "  labels + watermarks       %9.2f ms  (%+.2f%%)\n" (t_instr /. 1e6)
    (pct t_instr);
  Printf.printf "  full report bracket       %9.2f ms  (%+.2f%%)\n" (t_reported /. 1e6)
    (pct t_reported);
  Printf.printf "\n  new instrumentation calls per run: %d\n" new_ops_per_run;
  Printf.printf "  disabled labeled+watermark cost: %.2f ns/call\n" per_op_ns;
  Printf.printf "  disabled-mode overhead bound: %.4f%% of plain wall (budget: %.1f%%)\n"
    disabled_bound_pct e17_overhead_budget_pct;
  Printf.printf "  report bracket cost: %.1f us -> %.4f%% of plain wall (budget: %.1f%%)\n"
    (bracket_ns /. 1e3) report_overhead_pct e21_report_budget_pct;
  metric_float "plain_wall_ms" (t_plain /. 1e6);
  metric_float "instrumented_wall_ms" (t_instr /. 1e6);
  metric_float "reported_wall_ms" (t_reported /. 1e6);
  metric_float "instrumented_overhead_pct" (pct t_instr);
  metric_float "reported_wall_delta_pct" (pct t_reported);
  metric_float "report_bracket_us" (bracket_ns /. 1e3);
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
  end;
  Qdt.Obs.Metrics.set_enabled true;
  run_timings ~name:"e21"
    [
      bench "deep-clifford-t-plain" (fun () ->
          Qdt.Obs.Metrics.set_enabled false;
          run_once ());
      bench "deep-clifford-t-instrumented" (fun () ->
          Qdt.Obs.Metrics.set_enabled true;
          run_once ());
      bench "deep-clifford-t-reported" (fun () ->
          let rep = Qdt.Obs.Report.start () in
          run_once ();
          ignore (Qdt.Obs.Report.finish rep));
    ]

(* ------------------------------------------------------------------ *)
(* E22: sessions — warm vs cold DD engines on repeated jobs            *)
(* ------------------------------------------------------------------ *)

(* The session refactor's headline number: a session-held DD package
   keeps its unique table, complex-number table and compute caches
   across jobs, so a repeated Clifford+T workload re-runs against warm
   caches instead of rebuilding them per request (the amortizable
   structures of DAC'22 §III / arXiv:2108.07027).  Cold = a fresh
   engine per job (exactly what every [Backend.run_once] call does);
   warm = one engine for the whole batch.  The gate fails if warm is
   not faster than cold. *)

let e22 ~smoke () =
  header "E22" "Sessions: warm vs cold DD engines on repeated Clifford+T jobs";
  (* Sized so the batch's unique table stays under the GC threshold: a
     collection clears the compute caches wholesale, which is exactly the
     state a warm session exists to preserve.  (E16 covers the bounded-
     memory regime where GC fires.) *)
  let n = if smoke then 6 else 7 in
  let gates = if smoke then 120 else 180 in
  let jobs = if smoke then 6 else 10 in
  let reps = !reps_flag in
  let c = Generators.random_clifford_t ~seed:13 ~gates ~t_fraction:0.25 n in
  let (module S : Qdt.Backend.SESSION) =
    match Qdt.Registry.find_session "decision-diagrams" with
    | Some m -> m
    | None -> failwith "decision-diagrams session engine not registered"
  in
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
  run_cold () (* warm up *);
  let t_cold = best_of ~reps run_cold in
  run_warm () (* warm up *);
  let t_warm = best_of ~reps run_warm in
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
  let speedup = t_cold /. t_warm in
  Printf.printf
    "workload: random Clifford+T, n=%d, %d gates, %d identical jobs per batch (%d reps, best-of)\n\n"
    n gates jobs reps;
  Printf.printf "  cold sessions (fresh engine per job)  %9.2f ms\n" (t_cold /. 1e6);
  Printf.printf "  warm session  (one engine, %2d jobs)   %9.2f ms\n" jobs (t_warm /. 1e6);
  Printf.printf "  speedup: %.2fx\n\n" speedup;
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
  metric_int "qubits" n;
  metric_int "gates" gates;
  metric_int "jobs_per_batch" jobs;
  metric_float "cold_batch_ms" (t_cold /. 1e6);
  metric_float "warm_batch_ms" (t_warm /. 1e6);
  metric_float "warm_speedup" speedup;
  metric_float "job1_compute_hit_rate" (d1 "compute_hit_rate");
  metric_float "jobN_compute_hit_rate" (dn "compute_hit_rate");
  metric_float "job1_unique_hit_rate" (d1 "unique_hit_rate");
  metric_float "jobN_unique_hit_rate" (dn "unique_hit_rate");
  metric_float "job1_gate_hit_rate" (d1 "gate_hit_rate");
  metric_float "jobN_gate_hit_rate" (dn "gate_hit_rate");
  metric_int "job1_gc_runs" (int_of_float (d1 "gc_runs"));
  metric_int "jobN_gc_runs" (int_of_float (dn "gc_runs"));
  if t_warm >= t_cold then begin
    Printf.eprintf
      "E22 FAILED: warm session batch (%.2f ms) is not faster than cold (%.2f ms)\n"
      (t_warm /. 1e6) (t_cold /. 1e6);
    exit 1
  end;
  let warm_s = S.create () in
  ignore (submit_ok warm_s) (* prime the engine for the warm timing *);
  run_timings ~name:"e22"
    [
      bench "cold-session-job" (fun () ->
          let s = S.create () in
          let st = submit_ok s in
          S.close s;
          st);
      bench "warm-session-job" (fun () -> submit_ok warm_s);
    ];
  S.close warm_s;
  (* The batch ratio above includes the warm batch's first job, which
     runs cold; this one compares single jobs on the warm path. *)
  let median label = (List.assoc ("e22/" ^ label) !json_timings).Stats.median in
  let job_speedup = median "cold-session-job" /. median "warm-session-job" in
  Printf.printf "  per-job speedup (cold job / warm job medians): %.2fx (batch: %.2fx)\n"
    job_speedup speedup;
  metric_float "warm_job_speedup" job_speedup

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
  let reps = !reps_flag in
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
  (* Warm vs cold over HTTP, best-of like every other gate here.  One
     job kind so the batches are identical apart from session reuse. *)
  let best_wall ~use_sessions =
    let best = ref infinity in
    for _ = 1 to reps do
      let r = load ~mix:[ `Amplitude ] ~use_sessions () in
      if r.Qdt_serve.Loadgen.failed > 0 then begin
        Printf.eprintf "E23 FAILED: jobs failed during warm/cold timing\n";
        exit 1
      end;
      best := Float.min !best r.Qdt_serve.Loadgen.wall_s
    done;
    !best
  in
  ignore (best_wall ~use_sessions:true) (* warm up server + sessions *);
  let t_cold = best_wall ~use_sessions:false in
  let t_warm = best_wall ~use_sessions:true in
  let speedup = t_cold /. t_warm in
  Printf.printf
    "\nworkload: random Clifford+T, n=%d, %d gates; %d clients x %d jobs (%d reps, best-of)\n\n"
    n gates clients jobs_per_client reps;
  Printf.printf "  cold (no session: engine per request)  %9.2f ms\n" (t_cold *. 1e3);
  Printf.printf "  warm (per-client session reuse)        %9.2f ms\n" (t_warm *. 1e3);
  Printf.printf "  speedup: %.2fx\n" speedup;
  metric_int "qubits" n;
  metric_int "gates" gates;
  metric_int "clients" clients;
  metric_int "jobs_per_client" jobs_per_client;
  metric_float "jobs_per_s" s.Qdt_serve.Loadgen.jobs_per_s;
  metric_int "p50_ns" s.Qdt_serve.Loadgen.p50_ns;
  metric_int "p99_ns" s.Qdt_serve.Loadgen.p99_ns;
  metric_int "max_ns" s.Qdt_serve.Loadgen.max_ns;
  metric_int "retried_429" s.Qdt_serve.Loadgen.retried_429;
  metric_float "cold_batch_ms" (t_cold *. 1e3);
  metric_float "warm_batch_ms" (t_warm *. 1e3);
  metric_float "warm_speedup" speedup;
  if t_warm >= t_cold then begin
    Printf.eprintf
      "E23 FAILED: warm-session serving (%.2f ms) is not faster than cold (%.2f ms)\n"
      (t_warm *. 1e3) (t_cold *. 1e3);
    exit 1
  end;
  (* Per-request latency through the whole stack, for the baseline gate:
     one HTTP round trip per thunk, warm session vs sessionless. *)
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
      bench "http-job-cold" (fun () -> post cold_body);
      bench "http-job-warm" (fun () -> post warm_body);
    ]

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
          "\n[%s] vs %s (gate: best rep > max(median × %.2g, median + %g·MAD)):\n"
          experiment path Baseline.default_min_ratio Baseline.default_mad_k;
        print_string (Baseline.render cmp);
        if cmp.Baseline.any_regressed then Some "timing regression" else None
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
