(* Focused edge-case tests across all libraries: boundary conditions,
   degenerate inputs, and cross-module consistency that the main suites
   don't exercise. *)

open Qdt_linalg
open Qdt_circuit

(* ------------------------------------------------------------------ *)
(* Linalg corner cases                                                 *)
(* ------------------------------------------------------------------ *)

let test_cx_div_by_small () =
  let tiny = Cx.make 1e-30 0.0 in
  let z = Cx.div Cx.one tiny in
  Alcotest.(check bool) "huge but finite" true (Float.is_finite z.Cx.re)

let test_vec_empty_ops () =
  let v = Vec.create 1 in
  Alcotest.(check (float 1e-12)) "zero norm" 0.0 (Vec.norm v);
  Alcotest.(check bool) "zero equals itself" true (Vec.approx_equal v v)

let test_mat_1x1 () =
  let m = Mat.of_rows [| [| Cx.i |] |] in
  Alcotest.(check bool) "1x1 unitary" true (Mat.is_unitary m);
  Alcotest.(check bool) "trace" true (Cx.approx_equal Cx.i (Mat.trace m));
  let d = Mat.dagger m in
  Alcotest.(check bool) "dagger" true (Cx.approx_equal (Cx.neg Cx.i) (Mat.get d 0 0))

let test_mat_nonsquare_kron () =
  let a = Mat.init 1 2 (fun _ c -> Cx.of_float (Float.of_int (c + 1))) in
  let b = Mat.init 2 1 (fun r _ -> Cx.of_float (Float.of_int (r + 3))) in
  let k = Mat.kron a b in
  Alcotest.(check int) "rows" 2 (Mat.rows k);
  Alcotest.(check int) "cols" 2 (Mat.cols k);
  Alcotest.(check bool) "entry" true
    (Cx.approx_equal (Cx.of_float 8.0) (Mat.get k 1 1))

let test_svd_degenerate () =
  (* all-zero matrix *)
  let z = Mat.create 3 3 in
  let d = Svd.decompose z in
  Array.iter (fun s -> Alcotest.(check (float 1e-12)) "zero sv" 0.0 s) d.Svd.sigma;
  (* rank-1 outer product *)
  let one = Mat.init 3 3 (fun _ _ -> Cx.of_float 1.0) in
  let d1 = Svd.decompose one in
  Alcotest.(check (float 1e-9)) "dominant" 3.0 d1.Svd.sigma.(0);
  Alcotest.(check (float 1e-9)) "rest zero" 0.0 d1.Svd.sigma.(1)

(* ------------------------------------------------------------------ *)
(* Circuit / QASM corner cases                                         *)
(* ------------------------------------------------------------------ *)

let test_single_qubit_circuit () =
  let c = Circuit.(empty 1 |> h 0 |> t 0 |> h 0) in
  Alcotest.(check int) "depth" 3 (Circuit.depth c);
  Alcotest.(check int) "two-qubit count" 0 (Circuit.count_two_qubit c);
  let sv = Qdt_arraysim.Statevector.run_unitary c in
  Alcotest.(check (float 1e-12)) "norm" 1.0 (Qdt_arraysim.Statevector.norm sv)

let test_qasm_empty_program () =
  let c = Qasm.of_string "qreg q[2];" in
  Alcotest.(check int) "no instructions" 0 (Circuit.length c);
  Alcotest.(check int) "qubits" 2 (Circuit.num_qubits c)

let test_qasm_whitespace_and_comments () =
  let c = Qasm.of_string "  // leading comment\n\nqreg q[1];\n\n  h q[0]; // trailing\n" in
  Alcotest.(check int) "one gate" 1 (Circuit.length c)

let test_qasm_roundtrip_extreme_angles () =
  let c =
    Circuit.(
      empty 1
      |> rz 1e-17 0
      |> rz (2.0 *. Float.pi *. 1000.0) 0
      |> rz (-0.1234567890123456) 0)
  in
  let parsed = Qasm.of_string (Qasm.to_string c) in
  Alcotest.(check bool) "lossless" true (Circuit.equal c parsed)

let test_qasm_u_alias () =
  let c = Qasm.of_string "qreg q[1]; u(0.1,0.2,0.3) q[0]; u1(0.5) q[0];" in
  match Circuit.instructions c with
  | [ Circuit.Apply { gate = Gate.U3 _; _ }; Circuit.Apply { gate = Gate.Phase _; _ } ] -> ()
  | _ -> Alcotest.fail "aliases u/u1 should parse"

let test_measure_grows_clbits () =
  let c = Qasm.of_string "qreg q[2]; measure q[0] -> c[5];" in
  Alcotest.(check bool) "clbits at least 6" true (Circuit.num_clbits c >= 6)

let test_adjoint_involution () =
  let c = Generators.random_circuit ~seed:44 ~depth:3 3 in
  Alcotest.(check bool) "c†† = c" true (Circuit.equal c (Circuit.adjoint (Circuit.adjoint c)))

let test_gate_counts_controlled_names () =
  let c = Circuit.(empty 4 |> cgate Gate.Z ~controls:[ 1; 2; 3 ] ~target:0) in
  Alcotest.(check (option int)) "cccz" (Some 1)
    (List.assoc_opt "cccz" (Circuit.gate_counts c))

(* ------------------------------------------------------------------ *)
(* DD internals                                                        *)
(* ------------------------------------------------------------------ *)

let test_dd_zero_edge_arithmetic () =
  let mgr = Qdt_dd.Pkg.create () in
  let zero = Qdt_dd.Pkg.zero_edge mgr in
  let bell =
    Qdt_dd.Build.from_vec mgr
      (Vec.of_array
         [| Cx.of_float Cx.sqrt1_2; Cx.zero; Cx.zero; Cx.of_float Cx.sqrt1_2 |])
  in
  Alcotest.(check bool) "0 + x = x" true
    (Qdt_dd.Pkg.edge_equal bell (Qdt_dd.Pkg.add mgr zero bell));
  Alcotest.(check bool) "x + 0 = x" true
    (Qdt_dd.Pkg.edge_equal bell (Qdt_dd.Pkg.add mgr bell zero));
  Alcotest.(check bool) "scale by 0" true
    (Qdt_dd.Pkg.is_zero (Qdt_dd.Pkg.scale mgr Cx.zero bell))

let test_dd_cache_consistency () =
  (* the same multiplication twice gives physically identical results *)
  let mgr = Qdt_dd.Pkg.create () in
  let u = Qdt_dd.Build.circuit_unitary mgr (Generators.qft 3) in
  let s = Qdt_dd.Build.zero_state mgr 3 in
  let r1 = Qdt_dd.Pkg.mul_mv mgr u s in
  let r2 = Qdt_dd.Pkg.mul_mv mgr u s in
  Alcotest.(check bool) "cached result identical" true (Qdt_dd.Pkg.edge_equal r1 r2)

let test_dd_associativity () =
  let mgr = Qdt_dd.Pkg.create () in
  let a = Qdt_dd.Build.circuit_unitary mgr Circuit.(empty 2 |> h 0 |> t 1) in
  let b = Qdt_dd.Build.circuit_unitary mgr Circuit.(empty 2 |> cx 1 0) in
  let c = Qdt_dd.Build.circuit_unitary mgr Circuit.(empty 2 |> s 0) in
  let left = Qdt_dd.Pkg.mul_mm mgr (Qdt_dd.Pkg.mul_mm mgr a b) c in
  let right = Qdt_dd.Pkg.mul_mm mgr a (Qdt_dd.Pkg.mul_mm mgr b c) in
  Alcotest.(check bool) "(ab)c = a(bc)" true (Qdt_dd.Pkg.edge_equal left right)

let test_dd_adjoint_involution () =
  let mgr = Qdt_dd.Pkg.create () in
  let u = Qdt_dd.Build.circuit_unitary mgr (Generators.random_circuit ~seed:9 ~depth:2 3) in
  let udd = Qdt_dd.Pkg.adjoint mgr (Qdt_dd.Pkg.adjoint mgr u) in
  Alcotest.(check bool) "u†† = u" true (Qdt_dd.Pkg.edge_equal u udd)

let test_dd_pauli_expectation () =
  let st = Qdt_dd.Sim.run_unitary Generators.bell in
  Alcotest.(check (float 1e-9)) "<ZZ> = 1" 1.0 (Qdt_dd.Sim.expectation_pauli st "ZZ");
  Alcotest.(check (float 1e-9)) "<XX> = 1" 1.0 (Qdt_dd.Sim.expectation_pauli st "XX");
  Alcotest.(check (float 1e-9)) "<YY> = -1" (-1.0) (Qdt_dd.Sim.expectation_pauli st "YY");
  Alcotest.(check (float 1e-9)) "<ZI> = 0" 0.0 (Qdt_dd.Sim.expectation_pauli st "ZI");
  Alcotest.(check (float 1e-9)) "<II> = 1" 1.0 (Qdt_dd.Sim.expectation_pauli st "II");
  Alcotest.check_raises "bad length"
    (Invalid_argument "Sim.expectation_pauli: string length must equal qubit count")
    (fun () -> ignore (Qdt_dd.Sim.expectation_pauli st "Z"));
  (* cross-check against arrays on a random state *)
  let c = Generators.random_circuit ~seed:5 ~depth:3 3 in
  let dd = Qdt_dd.Sim.run_unitary c in
  let sv = Qdt_arraysim.Statevector.run_unitary c in
  let expect_z q = Qdt_arraysim.Statevector.expectation_z sv q in
  Alcotest.(check (float 1e-8)) "IIZ = Z_0" (expect_z 0) (Qdt_dd.Sim.expectation_pauli dd "IIZ");
  Alcotest.(check (float 1e-8)) "ZII = Z_2" (expect_z 2) (Qdt_dd.Sim.expectation_pauli dd "ZII")

(* ------------------------------------------------------------------ *)
(* ZX phases and rewriting edge cases                                  *)
(* ------------------------------------------------------------------ *)

let test_phase_normalisation () =
  let open Qdt_zx.Phase in
  Alcotest.(check bool) "5pi = pi" true (equal pi (of_rational 5 1));
  Alcotest.(check bool) "-pi/2 = 3pi/2" true (equal (of_rational 3 2) (of_rational (-1) 2));
  Alcotest.(check bool) "4/8 reduces" true (equal half_pi (of_rational 4 8));
  Alcotest.(check bool) "negative denominator" true (equal half_pi (of_rational (-1) (-2)))

let test_zx_single_wire_identity () =
  let c = Circuit.empty 3 in
  let d = Qdt_zx.Translate.of_circuit c in
  let _ = Qdt_zx.Simplify.full_reduce d in
  Alcotest.(check bool) "bare wires are identity" true (Qdt_zx.Simplify.is_identity d)

let test_zx_global_phase_circuit () =
  (* Rz ∘ Phase pairs realise a pure global phase: reduces to identity *)
  let c = Circuit.(empty 1 |> rz (-0.8) 0 |> phase 0.8 0) in
  let d = Qdt_zx.Translate.equivalence_diagram c (Circuit.empty 1) in
  let _ = Qdt_zx.Simplify.full_reduce d in
  Alcotest.(check bool) "global phase is identity" true (Qdt_zx.Simplify.is_identity d)

let test_extract_empty_and_single () =
  let e = Qdt_zx.Extract.optimize_circuit (Circuit.empty 2) in
  Alcotest.(check int) "empty stays empty" 0 (Circuit.count_total e);
  let one = Qdt_zx.Extract.optimize_circuit Circuit.(empty 1 |> t 0) in
  let u1 = Qdt_arraysim.Unitary_builder.unitary Circuit.(empty 1 |> t 0) in
  let u2 = Qdt_arraysim.Unitary_builder.unitary one in
  Alcotest.(check bool) "single T preserved" true
    (Mat.equal_up_to_global_phase ~eps:1e-8 u1 u2)

(* ------------------------------------------------------------------ *)
(* Coupling / routing edge cases                                       *)
(* ------------------------------------------------------------------ *)

let test_coupling_single_qubit () =
  let c = Qdt_compile.Coupling.line 1 in
  Alcotest.(check int) "one qubit" 1 (Qdt_compile.Coupling.num_qubits c);
  Alcotest.(check (list (pair int int))) "no edges" [] (Qdt_compile.Coupling.edges c)

let test_coupling_disconnected_distance () =
  let c = Qdt_compile.Coupling.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "infinite" max_int (Qdt_compile.Coupling.distance c 0 3);
  Alcotest.check_raises "no path" Not_found (fun () ->
      ignore (Qdt_compile.Coupling.shortest_path c 0 3))

let test_router_on_larger_device () =
  (* 3-qubit circuit on a 5-qubit device *)
  let c = Generators.ghz 3 in
  let result = Qdt_compile.Router.route c (Qdt_compile.Coupling.line 5) in
  Alcotest.(check int) "device width" 5
    (Circuit.num_qubits result.Qdt_compile.Router.routed);
  Alcotest.(check bool) "respects" true
    (Qdt_compile.Router.respects result.Qdt_compile.Router.routed
       (Qdt_compile.Coupling.line 5))

let test_router_rejects_small_device () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Router.route: coupling map too small") (fun () ->
      ignore (Qdt_compile.Router.route (Generators.ghz 4) (Qdt_compile.Coupling.line 3)))

(* ------------------------------------------------------------------ *)
(* Stabilizer edge cases                                               *)
(* ------------------------------------------------------------------ *)

let test_tableau_single_qubit_cycle () =
  let t = Qdt_stabilizer.Tableau.create 1 in
  (* HSHSHS is a 1-qubit Clifford of order dividing 24; apply its inverse
     pattern and land back on |0> stabilizer Z *)
  for _ = 1 to 4 do
    Qdt_stabilizer.Tableau.h t 0;
    Qdt_stabilizer.Tableau.s t 0;
    Qdt_stabilizer.Tableau.s t 0;
    Qdt_stabilizer.Tableau.h t 0
  done;
  Alcotest.(check (list string)) "back to Z" [ "+Z" ]
    (Qdt_stabilizer.Tableau.stabilizer_strings t)

let test_tableau_swap_consistency () =
  let t = Qdt_stabilizer.Tableau.create 2 in
  Qdt_stabilizer.Tableau.x t 0;
  Qdt_stabilizer.Tableau.swap t 0 1;
  Alcotest.(check int) "moved" (-1) (Qdt_stabilizer.Tableau.expectation_z t 1);
  Alcotest.(check int) "cleared" 1 (Qdt_stabilizer.Tableau.expectation_z t 0)

(* ------------------------------------------------------------------ *)
(* Cross-backend agreement on the new generators                       *)
(* ------------------------------------------------------------------ *)

(* [run_ok backend c job] — one job on a fresh engine of the registered
   [backend]. *)
let run_ok backend c job =
  match Qdt.Backend.run_once (Option.get (Qdt.Registry.find_session backend)) c job with
  | Ok (result, _) -> result
  | Error e -> Alcotest.fail (Qdt.Backend.error_to_string e)

let state backend c =
  match run_ok backend c Qdt.Job.Full_state with
  | Qdt.Job.State v -> v
  | _ -> Alcotest.failf "%s: not a state payload" backend

let test_backends_agree_on_new_generators () =
  List.iter
    (fun (name, c) ->
      let reference = state "arrays" c in
      List.iter
        (fun backend ->
          if not (Vec.approx_equal ~eps:1e-7 reference (state backend c)) then
            Alcotest.failf "%s: %s disagrees" name backend)
        [ "decision-diagrams"; "tensor-network"; "mps" ])
    [
      ("qaoa", Generators.qaoa_maxcut ~seed:2 ~layers:1 4);
      ("hidden shift", Generators.hidden_shift ~shift:9 4);
      ("quantum volume", Generators.quantum_volume ~seed:1 ~depth:2 4);
    ]

let test_expectation_z_uniform_api () =
  let c = Generators.w_state 4 in
  List.iter
    (fun backend ->
      match run_ok backend c (Qdt.Job.Expectation_z { seed = 0; qubit = 1 }) with
      | Qdt.Job.Expectation v -> Alcotest.(check (float 1e-7)) backend 0.5 v
      | _ -> Alcotest.failf "%s: not an expectation payload" backend)
    [ "arrays"; "decision-diagrams"; "tensor-network"; "mps" ]

let () =
  Alcotest.run "qdt_edge_cases"
    [
      ( "linalg",
        [
          Alcotest.test_case "div small" `Quick test_cx_div_by_small;
          Alcotest.test_case "vec empty" `Quick test_vec_empty_ops;
          Alcotest.test_case "mat 1x1" `Quick test_mat_1x1;
          Alcotest.test_case "kron nonsquare" `Quick test_mat_nonsquare_kron;
          Alcotest.test_case "svd degenerate" `Quick test_svd_degenerate;
        ] );
      ( "circuit/qasm",
        [
          Alcotest.test_case "single qubit" `Quick test_single_qubit_circuit;
          Alcotest.test_case "empty program" `Quick test_qasm_empty_program;
          Alcotest.test_case "whitespace" `Quick test_qasm_whitespace_and_comments;
          Alcotest.test_case "extreme angles" `Quick test_qasm_roundtrip_extreme_angles;
          Alcotest.test_case "u aliases" `Quick test_qasm_u_alias;
          Alcotest.test_case "clbit growth" `Quick test_measure_grows_clbits;
          Alcotest.test_case "adjoint involution" `Quick test_adjoint_involution;
          Alcotest.test_case "controlled names" `Quick test_gate_counts_controlled_names;
        ] );
      ( "dd",
        [
          Alcotest.test_case "zero edges" `Quick test_dd_zero_edge_arithmetic;
          Alcotest.test_case "cache consistency" `Quick test_dd_cache_consistency;
          Alcotest.test_case "associativity" `Quick test_dd_associativity;
          Alcotest.test_case "adjoint involution" `Quick test_dd_adjoint_involution;
          Alcotest.test_case "pauli expectation" `Quick test_dd_pauli_expectation;
        ] );
      ( "zx",
        [
          Alcotest.test_case "phase normalisation" `Quick test_phase_normalisation;
          Alcotest.test_case "bare wires" `Quick test_zx_single_wire_identity;
          Alcotest.test_case "global phase" `Quick test_zx_global_phase_circuit;
          Alcotest.test_case "extract degenerate" `Quick test_extract_empty_and_single;
        ] );
      ( "compile",
        [
          Alcotest.test_case "single-qubit map" `Quick test_coupling_single_qubit;
          Alcotest.test_case "disconnected" `Quick test_coupling_disconnected_distance;
          Alcotest.test_case "larger device" `Quick test_router_on_larger_device;
          Alcotest.test_case "small device" `Quick test_router_rejects_small_device;
        ] );
      ( "stabilizer",
        [
          Alcotest.test_case "1q cycle" `Quick test_tableau_single_qubit_cycle;
          Alcotest.test_case "swap" `Quick test_tableau_swap_consistency;
        ] );
      ( "cross-backend",
        [
          Alcotest.test_case "new generators" `Quick test_backends_agree_on_new_generators;
          Alcotest.test_case "expectation api" `Quick test_expectation_z_uniform_api;
        ] );
    ]
