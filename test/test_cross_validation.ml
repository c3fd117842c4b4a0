(* The grand consistency matrix: every simulation backend against the
   dense reference on every workload family, plus the equivalence
   checkers against each other on compiled variants.  One parameterised
   runner — each (backend × workload) pair is a distinct check. *)

open Qdt_circuit
module Vec = Qdt_linalg.Vec
module Cx = Qdt_linalg.Cx

(* Workloads kept small enough for the dense reference. *)
let workloads =
  [
    ("bell", Generators.bell);
    ("ghz6", Generators.ghz 6);
    ("w5", Generators.w_state 5);
    ("qft5", Generators.qft 5);
    ("qft4-noswap", Generators.qft ~swaps:false 4);
    ("grover3", Generators.grover ~marked:6 3);
    ("bv5", Generators.bernstein_vazirani ~secret:21 5);
    ("dj4", Generators.deutsch_jozsa ~balanced:true 4);
    ("adder2", Generators.cuccaro_adder 2);
    ("phase-est", Generators.phase_estimation ~phase:0.4375 4);
    ("qaoa5", Generators.qaoa_maxcut ~seed:3 ~layers:2 5);
    ("hidden-shift6", Generators.hidden_shift ~shift:45 6);
    ("qv5", Generators.quantum_volume ~seed:9 ~depth:3 5);
    ("clifford6", Generators.random_clifford ~seed:8 ~gates:80 6);
    ("clifford+t5", Generators.random_clifford_t ~seed:8 ~gates:60 ~t_fraction:0.25 5);
    ("random6", Generators.random_circuit ~seed:8 ~depth:4 6);
  ]

let reference c =
  Qdt.Arrays.Statevector.to_vec (Qdt.Arrays.Statevector.run_unitary c)

(* [run_ok backend c job] — one job on a fresh engine of the registered
   [backend]. *)
let run_ok backend c job =
  match Qdt.Backend.run_once (Option.get (Qdt.Registry.find_session backend)) c job with
  | Ok (result, _) -> result
  | Error e -> Alcotest.fail (Qdt.Backend.error_to_string e)

let test_backend backend () =
  List.iter
    (fun (name, c) ->
      let expect = reference c in
      match run_ok backend c Qdt.Job.Full_state with
      | Qdt.Job.State got ->
          if not (Vec.approx_equal ~eps:1e-6 expect got) then
            Alcotest.failf "%s disagrees on %s" backend name
      | _ -> Alcotest.failf "%s: not a state payload" backend)
    workloads

let test_ch_form_on_clifford () =
  List.iter
    (fun (name, c) ->
      if Qdt.Stabilizer.Tableau.supports c then begin
        let got = Qdt.Stabilizer.Ch_form.to_vec (Qdt.Stabilizer.Ch_form.run c) in
        if not (Vec.approx_equal ~eps:1e-7 (reference c) got) then
          Alcotest.failf "ch-form disagrees on %s" name
      end)
    workloads

let test_stabilizer_rank_spot_amplitudes () =
  List.iter
    (fun (name, c) ->
      match Qdt.Stabilizer.Stabilizer_rank.prepare c with
      | exception Invalid_argument _ -> () (* too many branch points: skip *)
      | p ->
          if Qdt.Stabilizer.Stabilizer_rank.t_count p <= 10 then begin
            let expect = reference c in
            List.iter
              (fun k ->
                let k = k land ((1 lsl Circuit.num_qubits c) - 1) in
                let got = Qdt.Stabilizer.Stabilizer_rank.amplitude p k in
                if not (Cx.approx_equal ~eps:1e-6 (Vec.get expect k) got) then
                  Alcotest.failf "stabilizer-rank disagrees on %s at %d" name k)
              [ 0; 1; 5 ]
          end)
    workloads

let test_sampling_backends_agree () =
  (* frequency agreement between array, DD and (where Clifford) tableau
     sampling on GHZ *)
  let c = Generators.ghz 5 in
  let shots = 4000 in
  let freq counts k =
    Float.of_int (Option.value ~default:0 (List.assoc_opt k counts)) /. Float.of_int shots
  in
  let sample backend seed =
    match run_ok backend c (Qdt.Job.Sample { seed; shots }) with
    | Qdt.Job.Counts counts -> counts
    | _ -> Alcotest.failf "%s: not a counts payload" backend
  in
  let arr = sample "arrays" 1 in
  let dd = sample "decision-diagrams" 2 in
  let stab = sample "stabilizer" 3 in
  List.iter
    (fun k ->
      List.iter
        (fun (name, counts) ->
          let f = freq counts k in
          if Float.abs (f -. 0.5) > 0.05 then
            Alcotest.failf "%s: freq(%d) = %.3f far from 0.5" name k f)
        [ ("arrays", arr); ("dd", dd); ("stabilizer", stab) ])
    [ 0; 31 ]

let test_equivalence_checkers_on_pipeline () =
  (* compile each workload (when it fits the device) three different ways
     and demand every exact checker agrees it is still the same circuit *)
  List.iter
    (fun (name, c) ->
      if Circuit.num_qubits c <= 6 && Circuit.is_unitary_only c then begin
        let coupling = Qdt.Compile.Coupling.line (Circuit.num_qubits c) in
        let via_greedy =
          Qdt.Compile.Router.undo_final_permutation (Qdt.Compile.Router.route c coupling)
        in
        let via_lookahead =
          Qdt.Compile.Router.undo_final_permutation
            (Qdt.Compile.Lookahead_router.route c coupling)
        in
        let optimized, _ = Qdt.Compile.Optimize.optimize c in
        List.iter
          (fun (variant_name, variant) ->
            List.iter
              (fun checker ->
                match Qdt.equivalent ~checker c variant with
                | Qdt.Verify.Equiv.Equivalent -> ()
                | v ->
                    Alcotest.failf "%s/%s: %s says %s" name variant_name
                      (Qdt.checker_name checker)
                      (Qdt.Verify.Equiv.verdict_to_string v))
              [ Qdt.Check_dd; Qdt.Check_dd_alternating; Qdt.Check_tn ])
          [ ("greedy", via_greedy); ("lookahead", via_lookahead); ("peephole", optimized) ]
      end)
    workloads

let test_zx_pipeline_on_workloads () =
  (* translate → reduce → extract on every workload small enough, and
     verify with the DD checker *)
  List.iter
    (fun (name, c) ->
      if Circuit.num_qubits c <= 5 && Circuit.is_unitary_only c then begin
        let optimized = Qdt.Zx.Extract.optimize_circuit c in
        match Qdt.Verify.Equiv.dd c optimized with
        | Qdt.Verify.Equiv.Equivalent -> ()
        | v ->
            Alcotest.failf "zx pipeline broke %s (%s)" name
              (Qdt.Verify.Equiv.verdict_to_string v)
      end)
    workloads

let () =
  Alcotest.run "qdt_cross_validation"
    [
      ( "simulators",
        [
          Alcotest.test_case "decision diagrams" `Quick (test_backend "decision-diagrams");
          Alcotest.test_case "tensor network" `Slow (test_backend "tensor-network");
          Alcotest.test_case "mps" `Slow (test_backend "mps");
          Alcotest.test_case "ch form (clifford)" `Quick test_ch_form_on_clifford;
          Alcotest.test_case "stabilizer rank" `Quick test_stabilizer_rank_spot_amplitudes;
          Alcotest.test_case "sampling" `Quick test_sampling_backends_agree;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "compile + verify" `Slow test_equivalence_checkers_on_pipeline;
          Alcotest.test_case "zx optimize + verify" `Slow test_zx_pipeline_on_workloads;
        ] );
    ]
