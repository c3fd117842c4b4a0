(* Cross-validation of the unboxed numeric substrate against the retained
   boxed reference implementations (test/ref): randomized circuits through
   both statevector engines, SVD factor checks, MPS fidelity, and unit
   checks for the new in-place kernels. *)

open Qdt_circuit
module Cx = Qdt_linalg.Cx
module Vec = Qdt_linalg.Vec
module Mat = Qdt_linalg.Mat
module Svd = Qdt_linalg.Svd
module Sv = Qdt_arraysim.Statevector
module Ub = Qdt_arraysim.Unitary_builder
module Mps = Qdt_tensornet.Mps
module Vec_ref = Qdt_ref.Vec_ref
module Mat_ref = Qdt_ref.Mat_ref
module Svd_ref = Qdt_ref.Svd_ref
module Sv_ref = Qdt_ref.Sv_ref
module Mps_ref = Qdt_ref.Mps_ref

let cx = Alcotest.testable Cx.pp (Cx.approx_equal ~eps:1e-9)

let random_cx rng =
  { Cx.re = Random.State.float rng 2.0 -. 1.0; im = Random.State.float rng 2.0 -. 1.0 }

(* Unitary circuits across 3..8 qubits, mixing the gate families. *)
let unitary_workloads =
  List.concat_map
    (fun n ->
      [
        (Printf.sprintf "random%d" n, Generators.random_circuit ~seed:(40 + n) ~depth:4 n);
        ( Printf.sprintf "clifford+t%d" n,
          Generators.random_clifford_t ~seed:(50 + n) ~gates:(30 * n) ~t_fraction:0.25 n );
        (Printf.sprintf "qft%d" n, Generators.qft n);
      ])
    [ 3; 4; 5; 6; 7; 8 ]

let test_sv_matches_ref () =
  List.iter
    (fun (name, c) ->
      let got = Sv.run_unitary c in
      let expect = Sv_ref.run_unitary c in
      let dim = 1 lsl Circuit.num_qubits c in
      for k = 0 to dim - 1 do
        let a = Sv.amplitude got k and b = Sv_ref.amplitude expect k in
        if Cx.norm (Cx.sub a b) > 1e-9 then
          Alcotest.failf "%s: amplitude %d differs: got %s, want %s" name k
            (Format.asprintf "%a" Cx.pp a)
            (Format.asprintf "%a" Cx.pp b)
      done)
    unitary_workloads

let test_sv_measurement_matches_ref () =
  (* Both engines consume the RNG identically, so seeded runs with
     mid-circuit measurement and reset must agree bit for bit. *)
  List.iter
    (fun seed ->
      let c =
        Circuit.empty ~clbits:4 4
        |> Circuit.add (Circuit.Apply { gate = Gate.H; controls = []; target = 0 })
        |> Circuit.add (Circuit.Apply { gate = Gate.H; controls = []; target = 1 })
        |> Circuit.add (Circuit.Apply { gate = Gate.X; controls = [ 0 ]; target = 2 })
        |> Circuit.add (Circuit.Measure { qubit = 0; clbit = 0 })
        |> Circuit.add (Circuit.Reset 1)
        |> Circuit.add (Circuit.Apply { gate = Gate.H; controls = []; target = 3 })
        |> Circuit.add (Circuit.Measure { qubit = 3; clbit = 1 })
      in
      let sv, clbits = Sv.run ~seed c in
      let sv', clbits' = Sv_ref.run ~seed c in
      Alcotest.(check (array int)) "clbits" clbits' clbits;
      for k = 0 to 15 do
        Alcotest.check cx "amp" (Sv_ref.amplitude sv' k) (Sv.amplitude sv k)
      done)
    [ 0; 1; 2; 3; 17 ]

let test_sample_matches_ref_probabilities () =
  let c = Generators.random_circuit ~seed:9 ~depth:4 5 in
  let sv = Sv.run_unitary c in
  let probs = Sv.probabilities sv in
  let probs' = Sv_ref.probabilities (Sv_ref.run_unitary c) in
  Array.iteri
    (fun k p -> Alcotest.(check (float 1e-9)) "prob" probs'.(k) p)
    probs;
  (* scratch gauge: sampling must have materialised the probability table *)
  let _ = Sv.sample sv ~shots:50 in
  Alcotest.(check int) "scratch bytes" (8 * (1 lsl 5)) (Sv.scratch_bytes sv)

let random_mat rng rows cols = Mat.init rows cols (fun _ _ -> random_cx rng)

let test_svd_matches_ref () =
  let rng = Random.State.make [| 71 |] in
  List.iter
    (fun (rows, cols) ->
      let m = random_mat rng rows cols in
      let d = Svd.decompose m in
      (* reconstruction *)
      let r = Svd.reconstruct d in
      if Mat.frobenius_distance m r > 1e-9 then
        Alcotest.failf "%dx%d: reconstruction off by %g" rows cols
          (Mat.frobenius_distance m r);
      (* orthonormal factors *)
      let k = Array.length d.Svd.sigma in
      let gram = Mat.mul (Mat.dagger d.Svd.u) d.Svd.u in
      if not (Mat.approx_equal ~eps:1e-9 gram (Mat.identity k)) then
        Alcotest.failf "%dx%d: u columns not orthonormal" rows cols;
      let gram_v = Mat.mul d.Svd.vdag (Mat.dagger d.Svd.vdag) in
      if not (Mat.approx_equal ~eps:1e-9 gram_v (Mat.identity k)) then
        Alcotest.failf "%dx%d: vdag rows not orthonormal" rows cols;
      (* singular values agree with the boxed reference *)
      let m_ref = Mat_ref.init rows cols (fun r c -> Mat.get m r c) in
      let d_ref = Svd_ref.decompose m_ref in
      Array.iteri
        (fun i s -> Alcotest.(check (float 1e-9)) "sigma" d_ref.Svd_ref.sigma.(i) s)
        d.Svd.sigma)
    [ (2, 2); (4, 4); (6, 3); (3, 6); (8, 8); (5, 5) ]

let test_svd_truncation_matches_ref () =
  let rng = Random.State.make [| 72 |] in
  let m = random_mat rng 8 8 in
  let d = Svd.decompose m and m_ref = Mat_ref.init 8 8 (fun r c -> Mat.get m r c) in
  let d_ref = Svd_ref.decompose m_ref in
  List.iter
    (fun max_rank ->
      let t, dropped = Svd.truncate ~max_rank ~cutoff:1e-12 d in
      let t_ref, dropped_ref = Svd_ref.truncate ~max_rank ~cutoff:1e-12 d_ref in
      Alcotest.(check int) "kept rank"
        (Array.length t_ref.Svd_ref.sigma)
        (Array.length t.Svd.sigma);
      Alcotest.(check (float 1e-9)) "dropped weight" dropped_ref dropped)
    [ 1; 3; 8 ]

let test_mps_matches_ref () =
  List.iter
    (fun (name, c) ->
      let n = Circuit.num_qubits c in
      if n <= 6 then begin
        let mps = Mps.run c in
        let mps' = Mps_ref.run c in
        for k = 0 to (1 lsl n) - 1 do
          let a = Mps.amplitude mps k and b = Mps_ref.amplitude mps' k in
          if Cx.norm (Cx.sub a b) > 1e-9 then
            Alcotest.failf "%s: MPS amplitude %d differs" name k
        done;
        Alcotest.(check (float 1e-9))
          "truncation error" (Mps_ref.truncation_error mps')
          (Mps.truncation_error mps)
      end)
    unitary_workloads

let test_mps_fidelity_vs_dense () =
  (* Truncated MPS evolution: the unboxed pipeline must reach the same
     fidelity to the dense state as the boxed one, bond for bond. *)
  let c = Generators.random_circuit ~seed:33 ~depth:5 6 in
  let dense = Sv.to_vec (Sv.run_unitary c) in
  let fid v = Vec.fidelity dense v in
  let mps = Mps.run ~max_bond:4 c in
  let mps' = Mps_ref.run ~max_bond:4 c in
  let v = Mps.to_vec mps in
  let v' = Vec.init (1 lsl 6) (fun k -> Vec_ref.get (Mps_ref.to_vec mps') k) in
  Alcotest.(check (float 1e-9)) "fidelity" (fid v') (fid v);
  Alcotest.(check int) "max bond" (Mps_ref.max_bond_dim mps') (Mps.max_bond_dim mps)

let test_vec_kernels () =
  let rng = Random.State.make [| 5 |] in
  let n = 37 in
  let x = Vec.init n (fun _ -> random_cx rng) in
  let y = Vec.init n (fun _ -> random_cx rng) in
  let alpha = random_cx rng in
  (* axpy against the boxed formula *)
  let want = Vec.add y (Vec.scale alpha x) in
  let got = Vec.copy y in
  Vec.axpy ~alpha x got;
  if not (Vec.approx_equal ~eps:1e-12 want got) then Alcotest.fail "axpy mismatch";
  (* scale_inplace *)
  let got = Vec.copy x in
  Vec.scale_inplace alpha got;
  if not (Vec.approx_equal ~eps:1e-12 (Vec.scale alpha x) got) then
    Alcotest.fail "scale_inplace mismatch";
  (* dot / norm2 against the boxed reference *)
  let xr = Vec_ref.init n (fun k -> Vec.get x k) in
  let yr = Vec_ref.init n (fun k -> Vec.get y k) in
  Alcotest.check cx "dot" (Vec_ref.dot xr yr) (Vec.dot x y);
  Alcotest.(check (float 1e-12)) "norm2" (Vec_ref.dot xr xr).Cx.re (Vec.norm2 x);
  (* buffer/of_buffer are zero-copy aliases *)
  let b = Vec.buffer x in
  b.(0) <- 42.0;
  Alcotest.(check (float 0.0)) "buffer aliases" 42.0 (Vec.get x 0).Cx.re;
  let adopted = Vec.of_buffer b in
  Vec.set adopted 0 Cx.zero;
  Alcotest.(check (float 0.0)) "of_buffer aliases" 0.0 (Vec.get x 0).Cx.re

let test_mat_mul_into () =
  let rng = Random.State.make [| 6 |] in
  let a = random_mat rng 5 7 and b = random_mat rng 7 3 in
  let out = Mat.create 5 3 in
  Mat.mul_into ~out a b;
  if not (Mat.approx_equal ~eps:1e-12 (Mat.mul a b) out) then
    Alcotest.fail "mul_into mismatch";
  Alcotest.check_raises "aliased out rejected"
    (Invalid_argument "Mat.mul_into: output aliases an input") (fun () ->
      let sq = random_mat rng 4 4 in
      Mat.mul_into ~out:sq sq (Mat.identity 4))

let test_apply_matrix2_matches_full () =
  (* Random 4x4 unitary from a small circuit. *)
  let u = Ub.unitary (Generators.random_circuit ~seed:12 ~depth:3 2) in
  List.iter
    (fun (n, q0, q1) ->
      let c = Generators.random_circuit ~seed:(90 + n) ~depth:3 n in
      let sv = Sv.run_unitary c in
      let direct = Sv.copy sv in
      Sv.apply_matrix2 direct u ~controls:[] ~q0 ~q1;
      (* Reference: swap (q0, q1) onto wires (0, 1), hit the state with
         I ⊗ u as a full matrix-vector product, and swap back. *)
      let expect = Sv.copy sv in
      if q0 <> 0 then Sv.apply_swap expect ~controls:[] q0 0;
      let q1' = if q1 = 0 then q0 else q1 in
      if q1' <> 1 then Sv.apply_swap expect ~controls:[] q1' 1;
      let pad = Mat.kron (Mat.identity (1 lsl (n - 2))) u in
      let v = Mat.mul_vec pad (Sv.to_vec expect) in
      Sv.overwrite expect v;
      if q1' <> 1 then Sv.apply_swap expect ~controls:[] q1' 1;
      if q0 <> 0 then Sv.apply_swap expect ~controls:[] q0 0;
      let dim = 1 lsl n in
      for k = 0 to dim - 1 do
        let a = Sv.amplitude direct k and b = Sv.amplitude expect k in
        if Cx.norm (Cx.sub a b) > 1e-9 then
          Alcotest.failf "apply_matrix2 n=%d (%d,%d): amplitude %d differs" n q0 q1 k
      done)
    [ (2, 0, 1); (3, 1, 2); (4, 0, 2); (5, 3, 1) ];
  (* Controlled and wide cases, against the gates [u] was built from,
     placed on (q0, q1) with the extra controls: 15 and 16 qubits split
     across pool chunks at jobs 2. *)
  let gates_of_u = Circuit.instructions (Generators.random_circuit ~seed:12 ~depth:3 2) in
  let by_gates sv ~controls ~q0 ~q1 =
    let wire q = if q = 0 then q0 else q1 in
    List.iter
      (function
        | Circuit.Apply { gate; controls = cs; target } ->
            Sv.apply_gate sv gate ~controls:(controls @ List.map wire cs) ~target:(wire target)
        | _ -> Alcotest.fail "u is built from single-qubit and controlled gates only")
      gates_of_u
  in
  let saved = Qdt_par.jobs () in
  Fun.protect ~finally:(fun () -> Qdt_par.set_jobs saved) @@ fun () ->
  List.iter
    (fun jobs ->
      Qdt_par.set_jobs jobs;
      List.iter
        (fun (n, controls, q0, q1) ->
          let sv = Sv.run_unitary (Generators.random_circuit ~seed:(90 + n) ~depth:3 n) in
          let direct = Sv.copy sv and expect = Sv.copy sv in
          Sv.apply_matrix2 direct u ~controls ~q0 ~q1;
          by_gates expect ~controls ~q0 ~q1;
          for k = 0 to (1 lsl n) - 1 do
            let a = Sv.amplitude direct k and b = Sv.amplitude expect k in
            if Cx.norm (Cx.sub a b) > 1e-12 then
              Alcotest.failf "apply_matrix2 jobs=%d n=%d (%d,%d): amplitude %d differs" jobs n q0
                q1 k
          done)
        [
          (5, [ 4 ], 1, 3);
          (6, [ 0; 5 ], 4, 2);
          (15, [], 14, 2);
          (15, [ 7 ], 3, 9);
          (16, [], 1, 15);
          (16, [ 4 ], 12, 7);
        ])
    [ 1; 2 ]

(* The 4x4 kernel keeps the matrix in locals: a 16-qubit pass allocates
   a constant few words, not some per quadruple. *)
let test_apply_matrix2_allocation () =
  let u = Ub.unitary (Generators.random_circuit ~seed:12 ~depth:3 2) in
  let sv = Sv.run_unitary (Generators.random_circuit ~seed:106 ~depth:3 16) in
  let saved = Qdt_par.jobs () in
  Fun.protect ~finally:(fun () -> Qdt_par.set_jobs saved) @@ fun () ->
  Qdt_par.set_jobs 1;
  Sv.apply_matrix2 sv u ~controls:[] ~q0:3 ~q1:11;
  let before = Gc.minor_words () in
  Sv.apply_matrix2 sv u ~controls:[] ~q0:3 ~q1:11;
  let words = Gc.minor_words () -. before in
  if words >= 1000.0 then Alcotest.failf "one 16-qubit 4x4 pass allocated %.0f words" words

(* Bisecting the running sum picks what the linear scan picked, shot for
   shot, including the dim - 1 fallback when the draw exceeds the total
   probability. *)
let test_sample_matches_linear_scan () =
  let rng = Random.State.make [| 81 |] in
  let random_state n =
    let sv = Sv.of_vec n (Vec.init (1 lsl n) (fun _ -> random_cx rng)) in
    Sv.renormalise sv;
    sv
  in
  let check what sv =
    List.iteri
      (fun i seed ->
        let shots = List.nth [ 1; 100; 1000 ] (i mod 3) in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s seed %d" what seed)
          (Sv_ref.sample_table ~seed (Sv.probabilities sv) ~shots)
          (Sv.sample ~seed sv ~shots))
      [ 0; 1; 2; 3; 5 ]
  in
  for n = 1 to 12 do
    for s = 1 to 4 do
      check (Printf.sprintf "%d qubits state %d" n s) (random_state n)
    done
  done;
  (* Each call rebuilds the table: a second draw after a larger state
     sampled, and after the state changed under a used scratch table. *)
  let big = random_state 12 and small = random_state 5 in
  ignore (Sv.sample big ~shots:10);
  check "after a larger state" small;
  Sv.apply_gate big Gate.H ~controls:[] ~target:3;
  check "after the state changed" big;
  let half =
    Sv.of_vec 3 (Vec.init 8 (fun k -> if k < 2 then { Cx.re = 0.5; im = 0.0 } else Cx.zero))
  in
  check "norm^2 0.5" half;
  Alcotest.(check bool) "fallback to dim - 1" true
    (List.mem_assoc 7 (Sv.sample ~seed:1 half ~shots:100))

let test_kraus_weight () =
  let c = Generators.random_circuit ~seed:21 ~depth:4 5 in
  let sv = Sv.run_unitary c in
  List.iter
    (fun ch ->
      List.iter
        (fun k ->
          List.iter
            (fun target ->
              let w = Sv.kraus_weight sv k ~target in
              let branch = Sv.copy sv in
              Sv.apply_matrix branch k ~controls:[] ~target;
              let n = Sv.norm branch in
              Alcotest.(check (float 1e-12)) "kraus weight" (n *. n) w)
            [ 0; 2; 4 ])
        ch)
    [
      Qdt_arraysim.Density.amplitude_damping 0.3;
      Qdt_arraysim.Density.depolarizing 0.2;
      Qdt_arraysim.Density.phase_damping 0.15;
    ]

let () =
  Alcotest.run "qdt_unboxed"
    [
      ( "statevector",
        [
          Alcotest.test_case "matches boxed reference" `Quick test_sv_matches_ref;
          Alcotest.test_case "measurement/reset agree" `Quick
            test_sv_measurement_matches_ref;
          Alcotest.test_case "probabilities + scratch" `Quick
            test_sample_matches_ref_probabilities;
        ] );
      ( "svd",
        [
          Alcotest.test_case "factors vs reference" `Quick test_svd_matches_ref;
          Alcotest.test_case "truncation vs reference" `Quick
            test_svd_truncation_matches_ref;
        ] );
      ( "mps",
        [
          Alcotest.test_case "amplitudes vs reference" `Quick test_mps_matches_ref;
          Alcotest.test_case "truncated fidelity vs reference" `Quick
            test_mps_fidelity_vs_dense;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "vec in-place ops" `Quick test_vec_kernels;
          Alcotest.test_case "mat mul_into" `Quick test_mat_mul_into;
          Alcotest.test_case "fused 4x4 apply" `Quick test_apply_matrix2_matches_full;
          Alcotest.test_case "4x4 apply allocation" `Quick test_apply_matrix2_allocation;
          Alcotest.test_case "sample = linear scan" `Quick test_sample_matches_linear_scan;
          Alcotest.test_case "kraus weight" `Quick test_kraus_weight;
        ] );
    ]
