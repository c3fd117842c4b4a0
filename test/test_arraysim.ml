open Qdt_linalg
open Qdt_circuit
open Qdt_arraysim

let s2 = Cx.of_float Cx.sqrt1_2

let check_state msg expect sv =
  if not (Vec.approx_equal ~eps:1e-9 expect (Statevector.to_vec sv)) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Vec.pp expect Vec.pp
      (Statevector.to_vec sv)

let check_state_phase msg expect sv =
  if not (Vec.equal_up_to_global_phase ~eps:1e-8 expect (Statevector.to_vec sv)) then
    Alcotest.failf "%s (up to phase):@.expected %a@.got %a" msg Vec.pp expect Vec.pp
      (Statevector.to_vec sv)

(* ------------------------------------------------------------------ *)
(* Statevector basics                                                  *)
(* ------------------------------------------------------------------ *)

let test_initial_state () =
  let sv = Statevector.create 3 in
  Alcotest.(check (float 1e-12)) "p(|000>)" 1.0 (Statevector.probability sv 0);
  Alcotest.(check (float 1e-12)) "norm" 1.0 (Statevector.norm sv)

let test_bell_example1 () =
  (* Paper Example 1: end-to-end Bell preparation. *)
  let sv, _ = Statevector.run Generators.bell in
  check_state "bell" (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) sv;
  Alcotest.(check (float 1e-12)) "p(00)" 0.5 (Statevector.probability sv 0);
  Alcotest.(check (float 1e-12)) "p(11)" 0.5 (Statevector.probability sv 3)

let test_gate_application_strides () =
  (* X on each qubit of |000> lands on the right basis state. *)
  List.iter
    (fun q ->
      let sv = Statevector.create 3 in
      Statevector.apply_gate sv Gate.X ~controls:[] ~target:q;
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "X on qubit %d" q)
        1.0
        (Statevector.probability sv (1 lsl q)))
    [ 0; 1; 2 ]

let test_diagonal_fast_paths () =
  (* Diagonal (Z/S/T/Rz) and anti-diagonal (X/Y) gates take a specialised
     kernel; check it against the full circuit unitary from a state with
     every amplitude distinct, controls included. *)
  let n = 3 in
  let st = Random.State.make [| 42 |] in
  let v0 =
    Vec.normalize
      (Vec.init (1 lsl n) (fun _ ->
           Cx.make (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0)))
  in
  List.iter
    (fun (name, gate, controls, target) ->
      let sv = Statevector.of_vec n v0 in
      Statevector.apply_gate sv gate ~controls ~target;
      let c =
        Circuit.add (Circuit.Apply { gate; controls; target }) (Circuit.empty n)
      in
      let expect = Mat.mul_vec (Unitary_builder.unitary c) v0 in
      if not (Vec.approx_equal ~eps:1e-9 expect (Statevector.to_vec sv)) then
        Alcotest.failf "%s: fast path disagrees with the circuit unitary" name)
    [
      ("Z", Gate.Z, [], 1);
      ("S", Gate.S, [], 0);
      ("T", Gate.T, [], 2);
      ("Rz", Gate.Rz 0.7, [], 1);
      ("X", Gate.X, [], 1);
      ("Y", Gate.Y, [], 2);
      ("CZ", Gate.Z, [ 0 ], 2);
      ("CX", Gate.X, [ 2 ], 0);
      ("CCRz", Gate.Rz 1.3, [ 0; 2 ], 1);
      ("H (general kernel)", Gate.H, [], 1);
    ]

let test_controlled_gate () =
  let sv = Statevector.create 2 in
  (* control not satisfied: nothing happens *)
  Statevector.apply_gate sv Gate.X ~controls:[ 1 ] ~target:0;
  Alcotest.(check (float 1e-12)) "inactive" 1.0 (Statevector.probability sv 0);
  (* set control, now it fires *)
  Statevector.apply_gate sv Gate.X ~controls:[] ~target:1;
  Statevector.apply_gate sv Gate.X ~controls:[ 1 ] ~target:0;
  Alcotest.(check (float 1e-12)) "active" 1.0 (Statevector.probability sv 3);
  (* A control on the target, or off the state, has no base index. *)
  let rejected = Invalid_argument "Statevector: operands out of range or repeated" in
  Alcotest.check_raises "control on the target" rejected (fun () ->
      Statevector.apply_gate sv Gate.X ~controls:[ 0 ] ~target:0);
  Alcotest.check_raises "control off the state" rejected (fun () ->
      Statevector.apply_gate sv Gate.X ~controls:[ 2 ] ~target:0);
  Alcotest.check_raises "swap controlled by its own qubit" rejected (fun () ->
      Statevector.apply_swap sv ~controls:[ 1 ] 0 1)

let test_toffoli () =
  let run_input bits =
    let sv = Statevector.create 3 in
    List.iteri
      (fun q bit ->
        if bit = 1 then Statevector.apply_gate sv Gate.X ~controls:[] ~target:q)
      bits;
    Statevector.apply_gate sv Gate.X ~controls:[ 1; 2 ] ~target:0;
    Statevector.probabilities sv
  in
  (* only |.11> inputs flip qubit 0: bits listed as [q0; q1; q2] *)
  Alcotest.(check (float 1e-12)) "110 -> 111" 1.0 (run_input [ 0; 1; 1 ]).(7);
  Alcotest.(check (float 1e-12)) "010 stays" 1.0 (run_input [ 0; 1; 0 ]).(2);
  Alcotest.(check (float 1e-12)) "111 -> 110" 1.0 (run_input [ 1; 1; 1 ]).(6)

let test_swap () =
  let sv = Statevector.create 2 in
  Statevector.apply_gate sv Gate.X ~controls:[] ~target:0;
  Statevector.apply_swap sv ~controls:[] 0 1;
  Alcotest.(check (float 1e-12)) "swapped" 1.0 (Statevector.probability sv 2);
  (* controlled swap with control low: no-op *)
  let sv2 = Statevector.create 3 in
  Statevector.apply_gate sv2 Gate.X ~controls:[] ~target:0;
  Statevector.apply_swap sv2 ~controls:[ 2 ] 0 1;
  Alcotest.(check (float 1e-12)) "fredkin inactive" 1.0 (Statevector.probability sv2 1)

let test_expectation_z () =
  let sv, _ = Statevector.run Circuit.(empty 1 |> h 0) in
  Alcotest.(check (float 1e-10)) "<Z> of |+>" 0.0 (Statevector.expectation_z sv 0);
  let sv1, _ = Statevector.run Circuit.(empty 1 |> x 0) in
  Alcotest.(check (float 1e-10)) "<Z> of |1>" (-1.0) (Statevector.expectation_z sv1 0)

(* ------------------------------------------------------------------ *)
(* Generator semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_ghz_semantics () =
  List.iter
    (fun n ->
      let sv, _ = Statevector.run (Generators.ghz n) in
      let dim = 1 lsl n in
      Alcotest.(check (float 1e-10)) "p(0...0)" 0.5 (Statevector.probability sv 0);
      Alcotest.(check (float 1e-10)) "p(1...1)" 0.5 (Statevector.probability sv (dim - 1)))
    [ 1; 2; 3; 5; 8 ]

let test_w_state_semantics () =
  List.iter
    (fun n ->
      let sv, _ = Statevector.run (Generators.w_state n) in
      let expect = 1.0 /. Float.of_int n in
      for q = 0 to n - 1 do
        Alcotest.(check (float 1e-10))
          (Printf.sprintf "W_%d one-hot %d" n q)
          expect
          (Statevector.probability sv (1 lsl q))
      done;
      Alcotest.(check (float 1e-10)) "no |0...0>" 0.0 (Statevector.probability sv 0))
    [ 1; 2; 3; 4; 6 ]

let test_qft_matches_dft () =
  List.iter
    (fun n ->
      let dim = 1 lsl n in
      let u = Unitary_builder.unitary (Generators.qft n) in
      let omega = 2.0 *. Float.pi /. Float.of_int dim in
      let dft =
        Mat.init dim dim (fun r c ->
            Cx.scale (1.0 /. Float.sqrt (Float.of_int dim))
              (Cx.exp_i (omega *. Float.of_int (r * c))))
      in
      if not (Mat.approx_equal ~eps:1e-9 dft u) then
        Alcotest.failf "QFT(%d) is not the DFT matrix:@.%a" n Mat.pp u)
    [ 1; 2; 3; 4 ]

let test_grover_amplifies () =
  let n = 4 and marked = 11 in
  let sv, _ = Statevector.run (Generators.grover ~marked n) in
  let p = Statevector.probability sv marked in
  Alcotest.(check bool) (Printf.sprintf "p(marked)=%f > 0.9" p) true (p > 0.9)

let test_bernstein_vazirani () =
  let n = 5 in
  List.iter
    (fun secret ->
      let sv, _ = Statevector.run (Generators.bernstein_vazirani ~secret n) in
      (* query register should be exactly |secret>; ancilla is in |-> *)
      let p = ref 0.0 in
      for anc = 0 to 1 do
        p := !p +. Statevector.probability sv (secret lor (anc lsl n))
      done;
      Alcotest.(check (float 1e-10)) (Printf.sprintf "secret %d" secret) 1.0 !p)
    [ 0; 1; 19; 31 ]

let test_deutsch_jozsa () =
  let n = 3 in
  let sv_const, _ = Statevector.run (Generators.deutsch_jozsa ~balanced:false n) in
  let p_zero = ref 0.0 in
  for anc = 0 to 1 do
    p_zero := !p_zero +. Statevector.probability sv_const (anc lsl n)
  done;
  Alcotest.(check (float 1e-10)) "constant -> |0..0>" 1.0 !p_zero;
  let sv_bal, _ = Statevector.run (Generators.deutsch_jozsa ~balanced:true n) in
  let p_zero_bal = ref 0.0 in
  for anc = 0 to 1 do
    p_zero_bal := !p_zero_bal +. Statevector.probability sv_bal (anc lsl n)
  done;
  Alcotest.(check (float 1e-10)) "balanced -> not |0..0>" 0.0 !p_zero_bal

let test_cuccaro_adder () =
  let n = 3 in
  let circuit = Generators.cuccaro_adder n in
  let add_case a b =
    (* prepare inputs: qubit 2i+1 = b_i, 2i+2 = a_i *)
    let prep = ref (Circuit.empty (Circuit.num_qubits circuit)) in
    for i = 0 to n - 1 do
      if b land (1 lsl i) <> 0 then prep := Circuit.x ((2 * i) + 1) !prep;
      if a land (1 lsl i) <> 0 then prep := Circuit.x ((2 * i) + 2) !prep
    done;
    let sv, _ = Statevector.run (Circuit.append !prep circuit) in
    (* decode: find the basis state with probability 1 *)
    let probs = Statevector.probabilities sv in
    let idx = ref 0 in
    Array.iteri (fun k p -> if p > 0.5 then idx := k) probs;
    let result = ref 0 in
    for i = 0 to n - 1 do
      if !idx land (1 lsl ((2 * i) + 1)) <> 0 then result := !result lor (1 lsl i)
    done;
    if !idx land (1 lsl ((2 * n) + 1)) <> 0 then result := !result lor (1 lsl n);
    (* a register must be preserved *)
    let a_out = ref 0 in
    for i = 0 to n - 1 do
      if !idx land (1 lsl ((2 * i) + 2)) <> 0 then a_out := !a_out lor (1 lsl i)
    done;
    Alcotest.(check int) (Printf.sprintf "a preserved (%d+%d)" a b) a !a_out;
    Alcotest.(check int) (Printf.sprintf "%d+%d" a b) (a + b) !result
  in
  List.iter (fun (a, b) -> add_case a b)
    [ (0, 0); (1, 1); (3, 5); (7, 7); (4, 3); (6, 7); (5, 5) ]

let test_phase_estimation () =
  let bits = 4 in
  List.iter
    (fun k ->
      let phase = Float.of_int k /. 16.0 in
      let sv, _ = Statevector.run (Generators.phase_estimation ~phase bits) in
      (* counting register is qubits 1..bits; eigenstate qubit 0 stays |1> *)
      let probs = Statevector.probabilities sv in
      let best = ref 0 and best_p = ref 0.0 in
      Array.iteri
        (fun idx p ->
          if p > !best_p then begin
            best := idx;
            best_p := p
          end)
        probs;
      let counting = (!best lsr 1) land ((1 lsl bits) - 1) in
      Alcotest.(check bool) "eigenstate intact" true (!best land 1 = 1);
      Alcotest.(check int) (Printf.sprintf "phase %d/16" k) k counting;
      Alcotest.(check bool) "confident" true (!best_p > 0.99))
    [ 0; 1; 5; 11; 15 ]

(* ------------------------------------------------------------------ *)
(* Measurement, sampling                                               *)
(* ------------------------------------------------------------------ *)

let test_measurement_collapse () =
  let sv, _ = Statevector.run Generators.bell in
  let rng = Random.State.make [| 123 |] in
  let bit0 = Statevector.measure_qubit sv ~rng 0 in
  (* After measuring one half of a Bell pair, the other is determined. *)
  let bit1 = Statevector.measure_qubit sv ~rng 1 in
  Alcotest.(check int) "correlated" bit0 bit1;
  Alcotest.(check (float 1e-12)) "norm preserved" 1.0 (Statevector.norm sv)

let test_run_with_measurement () =
  let c = Circuit.measure_all Generators.bell in
  let seen = Hashtbl.create 4 in
  for seed = 0 to 99 do
    let _, clbits = Statevector.run ~seed c in
    Alcotest.(check int) "correlated clbits" clbits.(0) clbits.(1);
    Hashtbl.replace seen clbits.(0) ()
  done;
  Alcotest.(check int) "both outcomes occur" 2 (Hashtbl.length seen)

let test_reset () =
  let c = Circuit.(empty 1 |> h 0 |> reset 0) in
  let sv, _ = Statevector.run ~seed:7 c in
  Alcotest.(check (float 1e-12)) "reset to |0>" 1.0 (Statevector.probability sv 0)

let test_sampling () =
  let sv, _ = Statevector.run Generators.bell in
  let counts = Statevector.sample ~seed:5 sv ~shots:2000 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  Alcotest.(check int) "all shots" 2000 total;
  List.iter
    (fun (k, c) ->
      Alcotest.(check bool) "only 00/11" true (k = 0 || k = 3);
      Alcotest.(check bool) "roughly half" true (c > 850 && c < 1150))
    counts

(* ------------------------------------------------------------------ *)
(* Unitary builder                                                     *)
(* ------------------------------------------------------------------ *)

let test_unitary_bell () =
  let u = Unitary_builder.unitary Generators.bell in
  let expect =
    Mat.scale (Cx.of_float Cx.sqrt1_2)
      (Mat.of_rows
         [|
           [| Cx.one; Cx.zero; Cx.one; Cx.zero |];
           [| Cx.zero; Cx.one; Cx.zero; Cx.one |];
           [| Cx.zero; Cx.one; Cx.zero; Cx.scale (-1.0) Cx.one |];
           [| Cx.one; Cx.zero; Cx.scale (-1.0) Cx.one; Cx.zero |];
         |])
  in
  if not (Mat.approx_equal ~eps:1e-10 expect u) then
    Alcotest.failf "bell unitary mismatch:@.%a" Mat.pp u

let test_unitary_methods_agree () =
  List.iter
    (fun c ->
      let a = Unitary_builder.unitary c in
      let b = Unitary_builder.unitary_by_columns c in
      if not (Mat.approx_equal ~eps:1e-9 a b) then Alcotest.fail "methods disagree")
    [
      Generators.qft 3;
      Generators.grover ~marked:2 2;
      Generators.random_circuit ~seed:9 ~depth:4 3;
      Circuit.(empty 3 |> cswap 2 0 1 |> ccx 0 1 2);
    ]

let test_unitary_is_unitary () =
  let u = Unitary_builder.unitary (Generators.random_circuit ~seed:2 ~depth:5 4) in
  Alcotest.(check bool) "unitary" true (Mat.is_unitary ~eps:1e-8 u)

(* ------------------------------------------------------------------ *)
(* Density matrices and noise                                          *)
(* ------------------------------------------------------------------ *)

let test_density_pure () =
  let d = Density.run Generators.bell in
  Alcotest.(check (float 1e-10)) "trace" 1.0 (Density.trace d);
  Alcotest.(check (float 1e-10)) "purity" 1.0 (Density.purity d);
  let sv, _ = Statevector.run Generators.bell in
  Alcotest.(check (float 1e-10)) "fidelity" 1.0 (Density.fidelity_to_pure d sv);
  let probs = Density.probabilities d in
  Alcotest.(check (float 1e-10)) "p00" 0.5 probs.(0);
  Alcotest.(check (float 1e-10)) "p11" 0.5 probs.(3)

let test_density_matches_statevector () =
  let c = Generators.random_circuit ~seed:4 ~depth:3 3 in
  let d = Density.run c in
  let sv, _ = Statevector.run c in
  Alcotest.(check (float 1e-8)) "pure fidelity" 1.0 (Density.fidelity_to_pure d sv)

let test_depolarizing_mixes () =
  let d = Density.run ~noise:(fun () -> Density.depolarizing 0.2) Generators.bell in
  Alcotest.(check (float 1e-10)) "trace preserved" 1.0 (Density.trace d);
  Alcotest.(check bool) "purity dropped" true (Density.purity d < 0.99);
  let sv, _ = Statevector.run Generators.bell in
  Alcotest.(check bool) "fidelity dropped" true (Density.fidelity_to_pure d sv < 0.999)

let test_amplitude_damping () =
  (* Fully damping |1> returns it to |0>. *)
  let d = Density.run Circuit.(empty 1 |> x 0) in
  Density.apply_channel d (Density.amplitude_damping 1.0) 0;
  let probs = Density.probabilities d in
  Alcotest.(check (float 1e-10)) "damped to ground" 1.0 probs.(0)

let test_channels_trace_preserving () =
  List.iter
    (fun (name, ch) ->
      (* Σ K†K = I is the CPTP condition. *)
      let acc =
        List.fold_left
          (fun acc k -> Mat.add acc (Mat.mul (Mat.dagger k) k))
          (Mat.create 2 2) ch
      in
      if not (Mat.approx_equal ~eps:1e-10 (Mat.identity 2) acc) then
        Alcotest.failf "%s is not trace preserving" name)
    [
      ("depolarizing", Density.depolarizing 0.3);
      ("amplitude_damping", Density.amplitude_damping 0.4);
      ("phase_damping", Density.phase_damping 0.2);
      ("bit_flip", Density.bit_flip 0.1);
    ]

(* ------------------------------------------------------------------ *)
(* Gate fusion                                                         *)
(* ------------------------------------------------------------------ *)

(* A random circuit over every instruction kind the planner treats
   differently: single-qubit gates, one-control gates and swaps (half of
   them on the previous pair, either way round, so blocks grow), gates
   on three qubits, and barriers. *)
let fusable_circuit ~seed n =
  let st = Random.State.make [| seed; n |] in
  let angle () = Random.State.float st (2.0 *. Float.pi) in
  let q () = Random.State.int st n in
  let last = ref (0, 1 mod n) in
  let pair () =
    let a, b =
      if Random.State.bool st then
        let a, b = !last in
        if Random.State.bool st then (b, a) else (a, b)
      else
        let a = q () in
        (a, (a + 1 + Random.State.int st (n - 1)) mod n)
    in
    last := (a, b);
    (a, b)
  in
  let triple () =
    let a, b = pair () in
    let rec third () =
      let c = q () in
      if c = a || c = b then third () else c
    in
    (a, b, third ())
  in
  let step c =
    match Random.State.int st (if n >= 3 then 16 else 14) with
    | 0 -> Circuit.h (q ()) c
    | 1 -> Circuit.t (q ()) c
    | 2 -> Circuit.u3 ~theta:(angle ()) ~phi:(angle ()) ~lambda:(angle ()) (q ()) c
    | 3 -> Circuit.rx (angle ()) (q ()) c
    | 4 -> Circuit.ry (angle ()) (q ()) c
    | 5 -> Circuit.rz (angle ()) (q ()) c
    | 6 -> Circuit.phase (angle ()) (q ()) c
    | 7 -> let a, b = pair () in Circuit.cx a b c
    | 8 -> let a, b = pair () in Circuit.cz a b c
    | 9 -> let a, b = pair () in Circuit.cphase (angle ()) a b c
    | 10 -> let a, b = pair () in Circuit.cry (angle ()) a b c
    | 11 -> let a, b = pair () in Circuit.swap a b c
    | 12 -> Circuit.barrier c
    | 13 -> let a, b = pair () in Circuit.cx b a c
    | 14 -> let a, b, t = triple () in Circuit.ccx a b t c
    | _ -> let a, b, t = triple () in Circuit.cswap a b t c
  in
  let c = ref (Circuit.empty n) in
  for _ = 1 to 12 * n do
    c := step !c
  done;
  !c

let fused c =
  let sv = Statevector.create (Circuit.num_qubits c) in
  Fusion.run sv (Fusion.plan c);
  sv

let test_fusion_matches_unfused () =
  let circuits =
    List.concat_map
      (fun n ->
        List.map (fun seed -> (Printf.sprintf "mixed%d/%d" n seed, fusable_circuit ~seed n)) [ 1; 2; 3 ])
      [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    @ List.concat_map
        (fun n ->
          [
            (Printf.sprintf "qft%d" n, Generators.qft n);
            (Printf.sprintf "qv%d" n, Generators.quantum_volume ~seed:n ~depth:4 n);
            (Printf.sprintf "random%d" n, Generators.random_circuit ~seed:n ~depth:5 n);
          ])
        [ 2; 5; 8; 10 ]
  in
  List.iter
    (fun (name, c) ->
      let want, _ = Statevector.run c and got = fused c in
      for k = 0 to (1 lsl Circuit.num_qubits c) - 1 do
        let d = Cx.norm (Cx.sub (Statevector.amplitude got k) (Statevector.amplitude want k)) in
        if d > 1e-12 then Alcotest.failf "%s: amplitude %d off by %g" name k d
      done)
    circuits

(* The kernels write disjoint amplitudes, so the fused state is the same
   bits at any job count, also where the state splits across chunks. *)
let test_fusion_jobs_bit_identical () =
  let saved = Qdt_par.jobs () in
  Fun.protect ~finally:(fun () -> Qdt_par.set_jobs saved) @@ fun () ->
  List.iter
    (fun (name, c) ->
      let at jobs =
        Qdt_par.set_jobs jobs;
        Vec.buffer (Statevector.to_vec (fused c))
      in
      let serial = at 1 in
      List.iter
        (fun jobs ->
          if at jobs <> serial then Alcotest.failf "%s: jobs %d differs from jobs 1" name jobs)
        [ 2; 4 ])
    [
      ("qv15", Generators.quantum_volume ~seed:15 ~depth:4 15);
      ("mixed16", fusable_circuit ~seed:4 16);
    ]

(* One 4×4 pass per SU(4) block of quantum volume; a silent fall-back to
   one pass per gate fails these. *)
let test_fusion_pass_counts () =
  List.iter
    (fun (name, c, most) ->
      let p = Fusion.plan c in
      Alcotest.(check int) (name ^ " source gates") (Circuit.count_total c) (Fusion.gates p);
      if Fusion.passes p > most then
        Alcotest.failf "%s: %d passes, at most %d expected" name (Fusion.passes p) most)
    [
      ("qv15", Generators.quantum_volume ~seed:15 ~depth:4 15, 28);
      ("qv16", Generators.quantum_volume ~seed:17 ~depth:3 16, 24);
      ("qft16", Generators.qft 16, 144);
    ]

(* A block becomes one 4×4 pass only where that is cheaper than its
   gates' own kernels: a controlled phase with one Hadamard (QFT's
   pattern) and two CXs stay on their sparse kernels. *)
let test_fusion_only_where_it_pays () =
  List.iter
    (fun (name, c, want) ->
      Alcotest.(check int) name want (Fusion.passes (Fusion.plan c)))
    [
      ("h + cphase", Circuit.(empty 2 |> h 1 |> cphase 0.3 0 1), 2);
      ("cx cx", Circuit.(empty 2 |> cx 0 1 |> cx 1 0), 2);
      ("h h cx", Circuit.(empty 2 |> h 0 |> h 1 |> cx 0 1), 1);
      ( "u3 cx ry rx",
        Circuit.(empty 2 |> u3 ~theta:0.1 ~phi:0.2 ~lambda:0.3 0 |> cx 0 1 |> ry 0.4 0 |> rx 0.5 1),
        1 );
    ]

(* The arrays engine runs the plan: one [sv.gate] span per pass. *)
let test_arrays_engine_fuses () =
  let c = Generators.quantum_volume ~seed:3 ~depth:3 6 in
  let module Trace = Qdt_obs.Trace in
  Trace.set_enabled true;
  Trace.clear ();
  Fun.protect ~finally:(fun () -> Trace.set_enabled false; Trace.clear ()) @@ fun () ->
  ignore
    (Qdt.Backend.run_once (Option.get (Qdt.Registry.find_session "arrays")) c Qdt.Job.Full_state);
  let spans =
    List.length
      (List.filter (fun (e : Trace.event) -> e.name = "sv.gate" && e.phase = Trace.Begin)
         (Trace.events ()))
  in
  Alcotest.(check int) "one span per pass" (Fusion.passes (Fusion.plan c)) spans

(* ------------------------------------------------------------------ *)
(* Base-index kernels against the full-scan kernels, bit for bit       *)
(* ------------------------------------------------------------------ *)

module Kref = Qdt_ref.Sv_kernels_ref

(* Every kernel path — diagonal with no entry of 1, with u00 = 1 and
   with u11 = 1, anti-diagonal, general 2×2, 4×4 and swap — with 0, 1
   and 2 controls, placed on the lowest and the two highest bits, so the
   base walk reaches the top index and the chunks split where the gate
   bits are.  Matrices are random (not unitary): only bit identity is
   checked. *)
let kernel_cases ~rng n =
  let entry () = Random.State.float rng 2.0 -. 1.0 in
  (* Random entries where [keep] (row-major) holds, exact zeros
     elsewhere; [one] makes entry 0 or 3 exactly 1. *)
  let mat2 ?one keep =
    let b = Array.make 8 0.0 in
    List.iteri
      (fun i k ->
        if k then begin
          b.(2 * i) <- entry ();
          b.((2 * i) + 1) <- entry ()
        end)
      keep;
    Option.iter
      (fun i ->
        b.(2 * i) <- 1.0;
        b.((2 * i) + 1) <- 0.0)
      one;
    Mat.of_buffer ~rows:2 ~cols:2 b
  in
  let diagonal = [ true; false; false; true ] in
  let mat4 () = Mat.of_buffer ~rows:4 ~cols:4 (Array.init 32 (fun _ -> entry ())) in
  let placements = [ (0, n - 1); (n - 1, n - 2); (n - 2, 0) ] in
  let controls_for ncontrols (a, b) =
    let free = List.filter (fun q -> q <> a && q <> b) (List.init n Fun.id) in
    let rec pick k acc =
      if k = 0 then acc
      else
        let rest = List.filter (fun q -> not (List.mem q acc)) free in
        pick (k - 1) (List.nth rest (Random.State.int rng (List.length rest)) :: acc)
    in
    pick ncontrols []
  in
  List.concat_map
    (fun ncontrols ->
      List.concat_map
        (fun ((a, b) as place) ->
          let controls = controls_for ncontrols place in
          let one m name =
            ( Printf.sprintf "%s on %d, controls %s" name a
                (String.concat "," (List.map string_of_int controls)),
              (fun sv -> Statevector.apply_matrix sv m ~controls ~target:a),
              fun r -> Kref.apply_matrix r m ~controls ~target:a )
          in
          let m4 = mat4 () in
          [
            one (mat2 diagonal) "diagonal";
            one (mat2 ~one:0 diagonal) "diagonal u00=1";
            one (mat2 ~one:3 diagonal) "diagonal u11=1";
            one (mat2 [ false; true; true; false ]) "anti-diagonal";
            one (mat2 [ true; true; true; true ]) "general 2x2";
            ( Printf.sprintf "4x4 on (%d,%d), %d controls" a b ncontrols,
              (fun sv -> Statevector.apply_matrix2 sv m4 ~controls ~q0:a ~q1:b),
              fun r -> Kref.apply_matrix2 r m4 ~controls ~q0:a ~q1:b );
            ( Printf.sprintf "swap (%d,%d), %d controls" a b ncontrols,
              (fun sv -> Statevector.apply_swap sv ~controls a b),
              fun r -> Kref.apply_swap r ~controls a b );
          ])
        placements)
    [ 0; 1; 2 ]

(* Applies every case in turn to one random state on both kernels and
   compares all amplitudes' bits after each; returns the first mismatch. *)
let kernels_agree n =
  let rng = Random.State.make [| 77; n |] in
  let v =
    Vec.init (1 lsl n) (fun _ ->
        { Cx.re = Random.State.float rng 2.0 -. 1.0; im = Random.State.float rng 2.0 -. 1.0 })
  in
  let sv = Statevector.of_vec n v and r = Kref.of_vec n v in
  List.fold_left
    (fun failure (name, apply, apply_ref) ->
      if failure <> None then failure
      else begin
        apply sv;
        apply_ref r;
        let got = Vec.buffer (Statevector.vec_view sv) in
        let rec first i =
          if i >= Array.length got then None
          else if Int64.bits_of_float got.(i) <> Int64.bits_of_float r.Kref.buf.(i) then
            Some (Printf.sprintf "n=%d %s: float %d differs" n name i)
          else first (i + 1)
        in
        first 0
      end)
    None (kernel_cases ~rng n)

let test_kernels_bit_identical () =
  let saved = Qdt_par.jobs () in
  Fun.protect ~finally:(fun () -> Qdt_par.set_jobs saved) @@ fun () ->
  let check where = Option.iter (fun msg -> Alcotest.failf "%s: %s" where msg) in
  List.iter
    (fun jobs ->
      Qdt_par.set_jobs jobs;
      List.iter (fun n -> check (Printf.sprintf "jobs=%d" jobs) (kernels_agree n)) [ 15; 16 ])
    [ 1; 2 ];
  (* Two jobs at once, as a server runs them: both domains inside
     [occupy] before either starts, so every region walks its chunks on
     its caller. *)
  Qdt_par.set_jobs 2;
  let inside = Atomic.make 0 in
  let arrive_and_wait k =
    Atomic.incr inside;
    while Atomic.get inside < k do
      Domain.cpu_relax ()
    done
  in
  let job n () =
    Qdt_par.occupy (fun () ->
        arrive_and_wait 2;
        Fun.protect ~finally:(fun () -> arrive_and_wait 4) (fun () -> kernels_agree n))
  in
  let d15 = Domain.spawn (job 15) and d16 = Domain.spawn (job 16) in
  check "two occupied jobs" (Domain.join d15);
  check "two occupied jobs" (Domain.join d16)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_norm_preserved =
  QCheck.Test.make ~name:"unitary circuits preserve norm" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 1 5) (int_range 0 1000)))
    (fun (n, seed) ->
      let c = Generators.random_circuit ~seed ~depth:3 n in
      let sv, _ = Statevector.run c in
      Float.abs (Statevector.norm sv -. 1.0) < 1e-9)

let prop_double_application_identity =
  QCheck.Test.make ~name:"self-inverse gates square to identity" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 0 3)))
    (fun (n, which) ->
      let g = List.nth [ Gate.X; Gate.Y; Gate.Z; Gate.H ] which in
      let sv = Statevector.create n in
      (* randomise the state a bit first *)
      Statevector.apply_gate sv Gate.H ~controls:[] ~target:0;
      let before = Statevector.to_vec sv in
      Statevector.apply_gate sv g ~controls:[] ~target:(n - 1);
      Statevector.apply_gate sv g ~controls:[] ~target:(n - 1);
      Vec.approx_equal ~eps:1e-10 before (Statevector.to_vec sv))

let prop_unitary_builder_consistent =
  QCheck.Test.make ~name:"matrix path = kernel path" ~count:20
    (QCheck.make QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let c = Generators.random_circuit ~seed ~depth:2 3 in
      let u = Unitary_builder.unitary c in
      let sv, _ = Statevector.run c in
      let via_matrix = Mat.mul_vec u (Vec.basis ~dim:8 0) in
      Vec.approx_equal ~eps:1e-9 via_matrix (Statevector.to_vec sv))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_norm_preserved; prop_double_application_identity; prop_unitary_builder_consistent ]

let () =
  ignore check_state_phase;
  Alcotest.run "qdt_arraysim"
    [
      ( "statevector",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "paper example 1" `Quick test_bell_example1;
          Alcotest.test_case "strides" `Quick test_gate_application_strides;
          Alcotest.test_case "diagonal fast paths" `Quick test_diagonal_fast_paths;
          Alcotest.test_case "controlled" `Quick test_controlled_gate;
          Alcotest.test_case "toffoli" `Quick test_toffoli;
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "expectation" `Quick test_expectation_z;
        ] );
      ( "generators",
        [
          Alcotest.test_case "ghz" `Quick test_ghz_semantics;
          Alcotest.test_case "w state" `Quick test_w_state_semantics;
          Alcotest.test_case "qft = dft" `Quick test_qft_matches_dft;
          Alcotest.test_case "grover" `Quick test_grover_amplifies;
          Alcotest.test_case "bernstein-vazirani" `Quick test_bernstein_vazirani;
          Alcotest.test_case "deutsch-jozsa" `Quick test_deutsch_jozsa;
          Alcotest.test_case "cuccaro adder" `Quick test_cuccaro_adder;
          Alcotest.test_case "phase estimation" `Quick test_phase_estimation;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "collapse" `Quick test_measurement_collapse;
          Alcotest.test_case "run+measure" `Quick test_run_with_measurement;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "sampling" `Quick test_sampling;
        ] );
      ( "unitary",
        [
          Alcotest.test_case "bell" `Quick test_unitary_bell;
          Alcotest.test_case "methods agree" `Quick test_unitary_methods_agree;
          Alcotest.test_case "unitarity" `Quick test_unitary_is_unitary;
        ] );
      ( "density",
        [
          Alcotest.test_case "pure" `Quick test_density_pure;
          Alcotest.test_case "matches statevector" `Quick test_density_matches_statevector;
          Alcotest.test_case "depolarizing" `Quick test_depolarizing_mixes;
          Alcotest.test_case "amplitude damping" `Quick test_amplitude_damping;
          Alcotest.test_case "CPTP" `Quick test_channels_trace_preserving;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "matches unfused" `Quick test_fusion_matches_unfused;
          Alcotest.test_case "bit-identical across jobs" `Quick test_fusion_jobs_bit_identical;
          Alcotest.test_case "pass counts" `Quick test_fusion_pass_counts;
          Alcotest.test_case "4x4 only where it pays" `Quick test_fusion_only_where_it_pays;
          Alcotest.test_case "arrays engine fuses" `Quick test_arrays_engine_fuses;
        ] );
      ( "kernels",
        [ Alcotest.test_case "bit-identical to full scans" `Quick test_kernels_bit_identical ] );
      ("properties", props);
    ]
