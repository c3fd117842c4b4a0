open Qdt_linalg
open Qdt_circuit
open Qdt_tensornet

let s2 = Cx.of_float Cx.sqrt1_2

let check_vec msg expect got =
  if not (Vec.approx_equal ~eps:1e-8 expect got) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Vec.pp expect Vec.pp got

let check_cx msg expect got =
  if not (Cx.approx_equal ~eps:1e-8 expect got) then
    Alcotest.failf "%s: expected %a got %a" msg Cx.pp expect Cx.pp got

(* ------------------------------------------------------------------ *)
(* Tensor                                                              *)
(* ------------------------------------------------------------------ *)

let test_tensor_basics () =
  let t = Tensor.create ~shape:[| 2; 3 |] ~labels:[| 10; 20 |] in
  Alcotest.(check int) "rank" 2 (Tensor.rank t);
  Alcotest.(check int) "size" 6 (Tensor.size t);
  Tensor.set t [| 1; 2 |] Cx.i;
  check_cx "get/set" Cx.i (Tensor.get t [| 1; 2 |]);
  check_cx "other zero" Cx.zero (Tensor.get t [| 0; 2 |]);
  Alcotest.check_raises "repeated label" (Invalid_argument "Tensor: repeated label")
    (fun () -> ignore (Tensor.create ~shape:[| 2; 2 |] ~labels:[| 1; 1 |]))

let test_tensor_of_mat_vec () =
  let v = Vec.of_array [| Cx.one; Cx.zero; Cx.i; Cx.zero |] in
  let t = Tensor.of_vec ~labels:[| 5; 6 |] v in
  (* first axis = msb *)
  check_cx "v[10]" Cx.i (Tensor.get t [| 1; 0 |]);
  check_cx "v[00]" Cx.one (Tensor.get t [| 0; 0 |]);
  let m = Gates.cx in
  let tm = Tensor.of_mat ~row_labels:[| 1; 2 |] ~col_labels:[| 3; 4 |] m in
  (* CX: |10> -> |11>: row 3, col 2: entry (1,1),(1,0) *)
  check_cx "cx entry" Cx.one (Tensor.get tm [| 1; 1; 1; 0 |]);
  check_cx "cx zero entry" Cx.zero (Tensor.get tm [| 1; 0; 1; 0 |])

let test_matrix_product_example3 () =
  (* Example 3 of the paper: C = AB as contraction over the shared index. *)
  let a = Mat.of_rows [| [| Cx.one; Cx.i |]; [| Cx.zero; Cx.of_float 2.0 |] |] in
  let b = Mat.of_rows [| [| Cx.of_float 3.0; Cx.zero |]; [| Cx.one; Cx.i |] |] in
  let ta = Tensor.of_mat ~row_labels:[| 1 |] ~col_labels:[| 2 |] a in
  let tb = Tensor.of_mat ~row_labels:[| 2 |] ~col_labels:[| 3 |] b in
  let tc = Tensor.contract ta tb in
  let expect = Mat.mul a b in
  for i = 0 to 1 do
    for j = 0 to 1 do
      check_cx
        (Printf.sprintf "C[%d][%d]" i j)
        (Mat.get expect i j)
        (Tensor.get tc [| i; j |])
    done
  done;
  Alcotest.(check int) "cost 2*2*2" 8 (Tensor.contract_cost ta tb)

let test_tensor_permute () =
  let t = Tensor.init ~shape:[| 2; 2 |] ~labels:[| 1; 2 |] (fun idx ->
      Cx.of_float (Float.of_int ((10 * idx.(0)) + idx.(1)))) in
  let p = Tensor.permute t [| 2; 1 |] in
  check_cx "transposed" (Cx.of_float 10.0) (Tensor.get p [| 0; 1 |]);
  check_cx "diag" (Cx.of_float 11.0) (Tensor.get p [| 1; 1 |])

let test_tensor_outer_product () =
  let a = Tensor.of_vec ~labels:[| 1 |] (Vec.of_array [| Cx.one; Cx.i |]) in
  let b = Tensor.of_vec ~labels:[| 2 |] (Vec.of_array [| Cx.of_float 2.0; Cx.zero |]) in
  let prod = Tensor.contract a b in
  Alcotest.(check int) "rank 2" 2 (Tensor.rank prod);
  check_cx "entry" (Cx.make 0.0 2.0) (Tensor.get prod [| 1; 0 |])

let test_tensor_fix () =
  let v = Vec.of_array [| Cx.one; Cx.zero; Cx.i; Cx.of_float 3.0 |] in
  let t = Tensor.of_vec ~labels:[| 9; 8 |] v in
  let fixed = Tensor.fix t ~label:9 ~value:1 in
  Alcotest.(check int) "rank drops" 1 (Tensor.rank fixed);
  check_cx "slice 0" Cx.i (Tensor.get fixed [| 0 |]);
  check_cx "slice 1" (Cx.of_float 3.0) (Tensor.get fixed [| 1 |])

let test_tensor_inner_to_scalar () =
  let a = Tensor.of_vec ~labels:[| 1 |] (Vec.of_array [| s2; s2 |]) in
  let b = Tensor.of_vec ~labels:[| 1 |] (Vec.of_array [| s2; s2 |]) in
  let sc = Tensor.contract a b in
  check_cx "scalar" Cx.one (Tensor.to_scalar sc)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let test_network_open_labels () =
  let a = Tensor.of_mat ~row_labels:[| 1 |] ~col_labels:[| 2 |] Gates.h in
  let b = Tensor.of_mat ~row_labels:[| 2 |] ~col_labels:[| 3 |] Gates.h in
  let net = Network.of_list [ a; b ] in
  Alcotest.(check (list int)) "open" [ 1; 3 ] (Network.open_labels net);
  Alcotest.(check int) "count" 2 (Network.tensor_count net)

let test_network_plans_agree () =
  (* H·H = I via both planners. *)
  let mk l1 l2 = Tensor.of_mat ~row_labels:[| l1 |] ~col_labels:[| l2 |] Gates.h in
  let net = Network.of_list [ mk 1 2; mk 2 3 ] in
  let seq, _ = Network.contract_all ~plan:Network.Sequential net in
  let greedy, _ = Network.contract_all ~plan:Network.Greedy net in
  Alcotest.(check bool) "equal results" true
    (Tensor.approx_equal ~eps:1e-10 (Tensor.permute seq [| 1; 3 |]) (Tensor.permute greedy [| 1; 3 |]));
  check_cx "identity" Cx.one (Tensor.get seq [| 0; 0 |]);
  check_cx "off diag" Cx.zero (Tensor.get seq [| 0; 1 |])

let test_greedy_cheaper_on_chain () =
  (* A long matrix chain contracted greedily should never beat-lose badly;
     here both orders are fine, so just sanity check stats populated. *)
  let chain =
    List.init 6 (fun k ->
        Tensor.of_mat ~row_labels:[| k |] ~col_labels:[| k + 1 |] Gates.h)
  in
  let _, stats = Network.contract_all ~plan:Network.Greedy (Network.of_list chain) in
  Alcotest.(check int) "contractions" 5 stats.Network.contractions;
  Alcotest.(check bool) "mults counted" true (stats.Network.multiplications > 0)

(* ------------------------------------------------------------------ *)
(* Circuit -> TN (Fig. 2, Example 4)                                   *)
(* ------------------------------------------------------------------ *)

let test_bell_tn_fig2 () =
  let tn = Circuit_tn.of_circuit Generators.bell in
  (* 2 input bubbles + 2 gate tensors, as drawn in Fig. 2. *)
  Alcotest.(check int) "tensor count" 4 (Network.tensor_count (Circuit_tn.network tn));
  let amp00, _ = Circuit_tn.amplitude tn 0 in
  let amp11, _ = Circuit_tn.amplitude tn 3 in
  let amp01, _ = Circuit_tn.amplitude tn 1 in
  check_cx "amp 00" s2 amp00;
  check_cx "amp 11" s2 amp11;
  check_cx "amp 01" Cx.zero amp01;
  let state, _ = Circuit_tn.statevector tn in
  check_vec "full state" (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) state

let test_tn_matches_arrays () =
  List.iter
    (fun (name, c) ->
      let tn = Circuit_tn.of_circuit c in
      let state, _ = Circuit_tn.statevector tn in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      check_vec name (Qdt_arraysim.Statevector.to_vec sv) state)
    [
      ("ghz4", Generators.ghz 4);
      ("w3", Generators.w_state 3);
      ("qft3", Generators.qft 3);
      ("grover2", Generators.grover_iterations ~marked:2 ~iterations:1 2);
      ("random", Generators.random_circuit ~seed:21 ~depth:3 4);
      ("toffoli-heavy", Generators.cuccaro_adder 1);
    ]

let test_tn_amplitudes_match_arrays () =
  let c = Generators.random_circuit ~seed:33 ~depth:4 5 in
  let tn = Circuit_tn.of_circuit c in
  let sv = Qdt_arraysim.Statevector.run_unitary c in
  List.iter
    (fun k ->
      let amp, _ = Circuit_tn.amplitude tn k in
      check_cx (Printf.sprintf "amp %d" k) (Qdt_arraysim.Statevector.amplitude sv k) amp)
    [ 0; 1; 7; 13; 31 ]

let test_tn_memory_linear () =
  (* Example 4: the network representation grows linearly in gates. *)
  let memory n = Circuit_tn.memory_bytes (Circuit_tn.of_circuit (Generators.ghz n)) in
  let m8 = memory 8 and m16 = memory 16 in
  Alcotest.(check bool) "roughly linear" true (m16 < 3 * m8);
  (* while the state vector doubles per qubit *)
  Alcotest.(check bool) "much smaller than 2^16 amplitudes" true (m16 < 16 * 65536)

let test_tn_expectation () =
  let ez q = fst (Circuit_tn.expectation_z (Generators.w_state 4) q) in
  Alcotest.(check (float 1e-8)) "W <Z_0>" 0.5 (ez 0);
  Alcotest.(check (float 1e-8)) "W <Z_3>" 0.5 (ez 3);
  let sv = Qdt_arraysim.Statevector.run_unitary (Generators.w_state 4) in
  Alcotest.(check (float 1e-8)) "matches arrays"
    (Qdt_arraysim.Statevector.expectation_z sv 2) (ez 2)

let test_amplitude_slicing () =
  (* slicing must reproduce the exact amplitude with a smaller peak *)
  let c = Generators.random_circuit ~seed:14 ~depth:4 6 in
  let tn = Circuit_tn.of_circuit c in
  let exact, full_stats = Circuit_tn.amplitude tn 13 in
  List.iter
    (fun slices ->
      let sliced, stats = Circuit_tn.amplitude_sliced ~slices tn 13 in
      check_cx (Printf.sprintf "%d slices" slices) exact sliced;
      Alcotest.(check bool)
        (Printf.sprintf "peak %d <= full %d" stats.Network.peak_tensor_size
           full_stats.Network.peak_tensor_size)
        true
        (stats.Network.peak_tensor_size <= full_stats.Network.peak_tensor_size))
    [ 0; 1; 2; 4 ];
  (* sliced work grows with the number of cuts *)
  let _, s2 = Circuit_tn.amplitude_sliced ~slices:2 tn 13 in
  let _, s4 = Circuit_tn.amplitude_sliced ~slices:4 tn 13 in
  Alcotest.(check bool) "more slices, more contractions" true
    (s4.Network.contractions > s2.Network.contractions)

let test_network_sliced_scalar () =
  (* sum over slices of a closed network = direct contraction *)
  let c = Generators.qft 4 in
  let tn = Circuit_tn.of_circuit c in
  let exact, _ = Circuit_tn.amplitude tn 5 in
  let sliced, _ = Circuit_tn.amplitude_sliced ~slices:3 tn 5 in
  check_cx "qft amplitude" exact sliced

let test_hilbert_schmidt_overlap () =
  (* Tr(U†U) = 2^n for any unitary *)
  let c = Generators.qft 4 in
  let tr, _ = Circuit_tn.hilbert_schmidt_overlap c c in
  check_cx "self trace" (Cx.of_float 16.0) tr;
  (* Tr(I) on bare wires *)
  let e = Circuit.empty 3 in
  let tr_id, _ = Circuit_tn.hilbert_schmidt_overlap e e in
  check_cx "identity trace" (Cx.of_float 8.0) tr_id;
  (* against a genuinely different circuit the magnitude drops *)
  let c2 = Circuit.(Generators.qft 4 |> z 0) in
  let tr2, _ = Circuit_tn.hilbert_schmidt_overlap c c2 in
  Alcotest.(check bool) "smaller magnitude" true (Cx.norm tr2 < 15.9);
  (* matches the dense trace *)
  let a = Generators.random_circuit ~seed:6 ~depth:3 3 in
  let b = Generators.random_circuit ~seed:7 ~depth:3 3 in
  let dense =
    Mat.hilbert_schmidt (Qdt_arraysim.Unitary_builder.unitary b)
      (Qdt_arraysim.Unitary_builder.unitary a)
  in
  let via_tn, _ = Circuit_tn.hilbert_schmidt_overlap a b in
  check_cx "matches dense Tr(U2† U1)" dense via_tn

(* ------------------------------------------------------------------ *)
(* MPS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mps_initial () =
  let mps = Mps.create 4 in
  check_cx "amp |0000>" Cx.one (Mps.amplitude mps 0);
  check_cx "amp |0001>" Cx.zero (Mps.amplitude mps 1);
  Alcotest.(check (float 1e-12)) "norm" 1.0 (Mps.norm mps);
  Alcotest.(check int) "bond 1" 1 (Mps.max_bond_dim mps)

let test_mps_bell () =
  let mps = Mps.run Generators.bell in
  check_vec "bell" (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) (Mps.to_vec mps);
  Alcotest.(check int) "bond 2" 2 (Mps.max_bond_dim mps)

let test_mps_matches_arrays () =
  List.iter
    (fun (name, c) ->
      let mps = Mps.run c in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      check_vec name (Qdt_arraysim.Statevector.to_vec sv) (Mps.to_vec mps))
    [
      ("ghz5", Generators.ghz 5);
      ("w4", Generators.w_state 4);
      ("qft4 (non-adjacent gates)", Generators.qft 4);
      ("random", Generators.random_circuit ~seed:8 ~depth:3 4);
      ("clifford", Generators.random_clifford ~seed:2 ~gates:40 4);
    ]

let test_mps_ghz_bond_is_2 () =
  (* GHZ is maximally structured: bond dimension stays 2 at any size. *)
  let mps = Mps.run (Generators.ghz 12) in
  Alcotest.(check int) "bond 2" 2 (Mps.max_bond_dim mps);
  check_cx "amp all-ones" s2 (Mps.amplitude mps ((1 lsl 12) - 1));
  Alcotest.(check (float 1e-9)) "norm" 1.0 (Mps.norm mps)

let test_mps_random_bond_grows () =
  let mps = Mps.run (Generators.random_circuit ~seed:3 ~depth:6 8) in
  Alcotest.(check bool) "bond grew" true (Mps.max_bond_dim mps > 4)

let test_mps_truncation () =
  let c = Generators.random_circuit ~seed:5 ~depth:6 6 in
  let exact = Mps.run c in
  let truncated = Mps.run ~max_bond:2 c in
  Alcotest.(check bool) "exact keeps norm" true (Float.abs (Mps.norm exact -. 1.0) < 1e-8);
  Alcotest.(check bool) "truncation recorded" true (Mps.truncation_error truncated > 0.0);
  Alcotest.(check bool) "bond capped" true (Mps.max_bond_dim truncated <= 2);
  Alcotest.(check bool) "memory smaller" true
    (Mps.memory_bytes truncated < Mps.memory_bytes exact)

(* Densifying shares prefix products across indices but adds the same
   terms in the same order as [amplitude], so every entry matches it bit
   for bit — including truncated states whose bonds vary along the
   chain. *)
let test_mps_to_vec_bit_identical () =
  List.iter
    (fun (name, mps) ->
      let v = Mps.to_vec mps in
      for k = 0 to (1 lsl Mps.num_qubits mps) - 1 do
        let a = Mps.amplitude mps k and b = Vec.get v k in
        if
          Int64.bits_of_float a.Cx.re <> Int64.bits_of_float b.Cx.re
          || Int64.bits_of_float a.Cx.im <> Int64.bits_of_float b.Cx.im
        then Alcotest.failf "%s: amplitude %d differs" name k
      done)
    [
      ("ghz-12", Mps.run (Generators.ghz 12));
      ("w-12", Mps.run (Generators.w_state 12));
      ("hidden-shift-12", Mps.run (Generators.hidden_shift ~shift:0b101101011001 12));
      ("qft-8", Mps.run (Generators.qft 8));
      ("random-10 bond 32", Mps.run ~max_bond:32 (Generators.random_circuit ~seed:21 ~depth:8 10));
      ("random-9 bond 4", Mps.run ~max_bond:4 (Generators.random_circuit ~seed:22 ~depth:5 9));
      ("single qubit", Mps.run (Generators.random_circuit ~seed:23 ~depth:3 1));
    ]

let test_mps_expectation_z () =
  let mps = Mps.run (Generators.w_state 4) in
  Alcotest.(check (float 1e-8)) "W <Z_2>" 0.5 (Mps.expectation_z mps 2);
  let sv = Qdt_arraysim.Statevector.run_unitary (Generators.random_circuit ~seed:12 ~depth:3 4) in
  let mps2 = Mps.run (Generators.random_circuit ~seed:12 ~depth:3 4) in
  for q = 0 to 3 do
    Alcotest.(check (float 1e-7))
      (Printf.sprintf "random <Z_%d>" q)
      (Qdt_arraysim.Statevector.expectation_z sv q)
      (Mps.expectation_z mps2 q)
  done

let test_mps_sampling () =
  let mps = Mps.run (Generators.ghz 8) in
  let counts = Mps.sample ~seed:11 mps ~shots:600 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  Alcotest.(check int) "all shots" 600 total;
  List.iter
    (fun (k, c) ->
      Alcotest.(check bool) "extremes only" true (k = 0 || k = 255);
      Alcotest.(check bool) "balanced" true (c > 200 && c < 400))
    counts;
  (* W state: one-hot outcomes only *)
  let w = Mps.run (Generators.w_state 5) in
  let wc = Mps.sample ~seed:3 w ~shots:500 in
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) "one-hot" true (List.mem k [ 1; 2; 4; 8; 16 ]))
    wc

let test_mps_rejects_three_qubit () =
  let mps = Mps.create 3 in
  Alcotest.check_raises "ccx rejected"
    (Invalid_argument "Mps.apply_instruction: gates on 3+ qubits not supported")
    (fun () ->
      Mps.apply_instruction mps
        (Circuit.Apply { gate = Gate.X; controls = [ 1; 2 ]; target = 0 }))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_tn_matches_arrays =
  QCheck.Test.make ~name:"TN statevector = array sim" ~count:15
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 0 1000)))
    (fun (n, seed) ->
      let c = Generators.random_circuit ~seed ~depth:2 n in
      let state, _ = Circuit_tn.statevector (Circuit_tn.of_circuit c) in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      Vec.approx_equal ~eps:1e-7 (Qdt_arraysim.Statevector.to_vec sv) state)

let prop_plans_agree =
  QCheck.Test.make ~name:"greedy = sequential plan results" ~count:15
    (QCheck.make QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let c = Generators.random_circuit ~seed ~depth:2 3 in
      let tn = Circuit_tn.of_circuit c in
      let a, _ = Circuit_tn.statevector ~plan:Network.Sequential tn in
      let b, _ = Circuit_tn.statevector ~plan:Network.Greedy tn in
      Vec.approx_equal ~eps:1e-8 a b)

let prop_mps_matches_arrays =
  QCheck.Test.make ~name:"MPS = array sim" ~count:15
    (QCheck.make QCheck.Gen.(pair (int_range 2 5) (int_range 0 1000)))
    (fun (n, seed) ->
      let c = Generators.random_circuit ~seed ~depth:3 n in
      let mps = Mps.run c in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      Vec.approx_equal ~eps:1e-7 (Qdt_arraysim.Statevector.to_vec sv) (Mps.to_vec mps))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tn_matches_arrays; prop_plans_agree; prop_mps_matches_arrays ]

let () =
  Alcotest.run "qdt_tensornet"
    [
      ( "tensor",
        [
          Alcotest.test_case "basics" `Quick test_tensor_basics;
          Alcotest.test_case "of mat/vec" `Quick test_tensor_of_mat_vec;
          Alcotest.test_case "paper example 3" `Quick test_matrix_product_example3;
          Alcotest.test_case "permute" `Quick test_tensor_permute;
          Alcotest.test_case "outer product" `Quick test_tensor_outer_product;
          Alcotest.test_case "fix" `Quick test_tensor_fix;
          Alcotest.test_case "scalar" `Quick test_tensor_inner_to_scalar;
        ] );
      ( "network",
        [
          Alcotest.test_case "open labels" `Quick test_network_open_labels;
          Alcotest.test_case "plans agree" `Quick test_network_plans_agree;
          Alcotest.test_case "greedy chain" `Quick test_greedy_cheaper_on_chain;
        ] );
      ( "circuit_tn",
        [
          Alcotest.test_case "paper fig 2" `Quick test_bell_tn_fig2;
          Alcotest.test_case "matches arrays" `Quick test_tn_matches_arrays;
          Alcotest.test_case "amplitudes" `Quick test_tn_amplitudes_match_arrays;
          Alcotest.test_case "linear memory" `Quick test_tn_memory_linear;
          Alcotest.test_case "expectation" `Quick test_tn_expectation;
          Alcotest.test_case "hilbert-schmidt" `Quick test_hilbert_schmidt_overlap;
          Alcotest.test_case "amplitude slicing" `Quick test_amplitude_slicing;
          Alcotest.test_case "sliced qft" `Quick test_network_sliced_scalar;
        ] );
      ( "mps",
        [
          Alcotest.test_case "initial" `Quick test_mps_initial;
          Alcotest.test_case "bell" `Quick test_mps_bell;
          Alcotest.test_case "matches arrays" `Quick test_mps_matches_arrays;
          Alcotest.test_case "ghz bond 2" `Quick test_mps_ghz_bond_is_2;
          Alcotest.test_case "random bond grows" `Quick test_mps_random_bond_grows;
          Alcotest.test_case "truncation" `Quick test_mps_truncation;
          Alcotest.test_case "expectation" `Quick test_mps_expectation_z;
          Alcotest.test_case "sampling" `Quick test_mps_sampling;
          Alcotest.test_case "rejects 3q" `Quick test_mps_rejects_three_qubit;
          Alcotest.test_case "to_vec = amplitude, bit for bit" `Quick
            test_mps_to_vec_bit_identical;
        ] );
      ("properties", props);
    ]
