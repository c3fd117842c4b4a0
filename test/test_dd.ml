open Qdt_linalg
open Qdt_circuit
open Qdt_dd

let s2 = Cx.of_float Cx.sqrt1_2

let check_vec msg expect got =
  if not (Vec.approx_equal ~eps:1e-8 expect got) then
    Alcotest.failf "%s:@.expected %a@.got %a" msg Vec.pp expect Vec.pp got

let check_mat msg expect got =
  if not (Mat.approx_equal ~eps:1e-8 expect got) then
    Alcotest.failf "%s:@.expected@.%a@.got@.%a" msg Mat.pp expect Mat.pp got

(* ------------------------------------------------------------------ *)
(* Cnum_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_cnum_canonical () =
  let t = Cnum_table.create () in
  let id1, v1 = Cnum_table.canonical t (Cx.make 0.5 0.0) in
  let id2, v2 = Cnum_table.canonical t (Cx.make (0.5 +. 1e-12) 0.0) in
  Alcotest.(check int) "same id" id1 id2;
  Alcotest.(check bool) "same value" true (Cx.equal v1 v2);
  let id3, _ = Cnum_table.canonical t (Cx.make 0.6 0.0) in
  Alcotest.(check bool) "distinct id" true (id3 <> id1);
  let idz, vz = Cnum_table.canonical t (Cx.make 1e-13 (-1e-13)) in
  Alcotest.(check int) "zero id" Cnum_table.zero_id idz;
  Alcotest.(check bool) "zero value" true (Cx.equal vz Cx.zero);
  let ido, _ = Cnum_table.canonical t (Cx.make 1.0 1e-12) in
  Alcotest.(check int) "one id" Cnum_table.one_id ido

let test_cnum_boundary () =
  (* Values straddling a quantisation boundary must still unify. *)
  let t = Cnum_table.create ~eps:1e-9 () in
  let a = 0.1234567895 (* sits near a 1e-9 grid line *) in
  let id1, _ = Cnum_table.canonical t (Cx.make (a -. 4e-10) 0.0) in
  let id2, _ = Cnum_table.canonical t (Cx.make (a +. 4e-10) 0.0) in
  Alcotest.(check int) "straddling values unify" id1 id2

(* Bit-exact (id, value) equality: tells -0.0 from 0.0. *)
let same_entry (ia, (a : Cx.t)) (ib, (b : Cx.t)) =
  let bits = Int64.bits_of_float in
  ia = ib && Int64.equal (bits a.re) (bits b.re) && Int64.equal (bits a.im) (bits b.im)

(* The table must return the reference's representative for every query
   of a randomised insert/query/sweep stream, including the queries where
   several stored values lie within eps and the probe order decides. *)
let test_cnum_matches_reference () =
  let eps = 1e-9 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = Cnum_table.create ~eps () and r = Qdt_ref.Cnum_ref.create ~eps () in
      (* Entries still stored, to aim queries near them and to count the
         queries more than one of them could answer. *)
      let live = ref [ (Cnum_table.zero_id, Cx.zero); (Cnum_table.one_id, Cx.one) ] in
      let ambiguous = ref 0 in
      let coord () =
        match Random.State.int rng 6 with
        | 0 -> if Random.State.bool rng then 0.0 else -0.0
        | 1 -> (* half-way between two grid lines *)
            (float_of_int (Random.State.int rng 2000 - 1000) +. 0.5) *. eps
        | 2 -> (* large, up to past the int range once quantised *)
            (if Random.State.bool rng then 1.0 else -1.0)
            *. (10.0 ** float_of_int (Random.State.int rng 309))
        | 3 -> Random.State.float rng 2.0 -. 1.0
        | _ -> (* near zero: neighbours within eps of each other *)
            float_of_int (Random.State.int rng 20 - 10) *. 0.7 *. eps
      in
      let query () =
        match !live with
        | _ :: _ when Random.State.int rng 3 = 0 ->
            let _, (v : Cx.t) = List.nth !live (Random.State.int rng (List.length !live)) in
            let jitter () = (Random.State.float rng 3.0 -. 1.5) *. eps in
            Cx.make (v.re +. jitter ()) (v.im +. jitter ())
        | _ -> Cx.make (coord ()) (coord ())
      in
      for step = 1 to 3000 do
        if step mod 400 = 0 then begin
          let salt = Random.State.bits rng in
          let keep id = id <= Cnum_table.one_id || Hashtbl.hash (id, salt) mod 3 <> 0 in
          Alcotest.(check int) "sweep removes the same entries"
            (Qdt_ref.Cnum_ref.sweep r ~live:keep) (Cnum_table.sweep t ~live:keep);
          live := List.filter (fun (id, _) -> keep id) !live
        end
        else begin
          let z = query () in
          let near =
            List.length
              (List.filter (fun (_, v) -> Cx.approx_equal ~eps v z) !live)
          in
          if near > 1 then incr ambiguous;
          let ((id, _) as got) = Cnum_table.canonical t z in
          let want = Qdt_ref.Cnum_ref.canonical r z in
          if not (same_entry got want) then
            Alcotest.failf "seed %d step %d: canonical (%h, %h) gave id %d, reference id %d"
              seed step z.re z.im id (fst want);
          if not (List.mem_assoc id !live) then live := got :: !live
        end
      done;
      Alcotest.(check int) "ids allocated" (Qdt_ref.Cnum_ref.size r) (Cnum_table.size t);
      Alcotest.(check int) "entries stored" (Qdt_ref.Cnum_ref.live_entries r)
        (Cnum_table.live_entries t);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: %d queries had several candidates" seed !ambiguous)
        true (!ambiguous > 50))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Construction / canonicity                                           *)
(* ------------------------------------------------------------------ *)

let test_basis_states () =
  let mgr = Pkg.create () in
  for k = 0 to 7 do
    let e = Build.basis_state mgr 3 k in
    check_vec
      (Printf.sprintf "|%d>" k)
      (Vec.basis ~dim:8 k)
      (Pkg.to_vec mgr e ~num_qubits:3);
    Alcotest.(check int) "chain length" 3 (Pkg.node_count e)
  done

let test_from_vec_roundtrip () =
  let mgr = Pkg.create () in
  let st = Random.State.make [| 31 |] in
  for _trial = 1 to 5 do
    let v =
      Vec.normalize
        (Vec.init 8 (fun _ ->
             Cx.make (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0)))
    in
    check_vec "roundtrip" v (Pkg.to_vec mgr (Build.from_vec mgr v) ~num_qubits:3)
  done

let test_hash_consing () =
  let mgr = Pkg.create () in
  let a = Build.from_vec mgr (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) in
  let b = Build.from_vec mgr (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) in
  Alcotest.(check bool) "same edge" true (Pkg.edge_equal a b);
  (match (a.Pkg.target, b.Pkg.target) with
  | Pkg.Node n1, Pkg.Node n2 -> Alcotest.(check int) "same node id" n1.Pkg.id n2.Pkg.id
  | _ -> Alcotest.fail "expected nodes")

let test_bell_dd_fig1 () =
  (* Fig. 1 of the paper: the Bell state as a DD.  Root weight 1/√2,
     amplitude reconstruction by multiplying path weights. *)
  let mgr = Pkg.create () in
  let bell = Build.from_vec mgr (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) in
  Alcotest.(check bool) "root weight = 1/sqrt2" true
    (Cx.approx_equal ~eps:1e-9 bell.Pkg.w s2);
  Alcotest.(check int) "3 nodes (q1 + two q0)" 3 (Pkg.node_count bell);
  Alcotest.(check bool) "amp |00>" true
    (Cx.approx_equal ~eps:1e-9 s2 (Pkg.amplitude mgr bell 0));
  Alcotest.(check bool) "amp |01> = 0" true (Cx.is_zero (Pkg.amplitude mgr bell 1));
  Alcotest.(check bool) "amp |11>" true
    (Cx.approx_equal ~eps:1e-9 s2 (Pkg.amplitude mgr bell 3))

let test_ghz_nodes_linear () =
  (* The headline redundancy claim of Section III: GHZ needs O(n) nodes
     while the array needs 2^n amplitudes. *)
  let mgr = Pkg.create () in
  List.iter
    (fun n ->
      let st = Sim.make mgr n in
      let rng = Random.State.make [| 0 |] in
      List.iter
        (fun instr -> Sim.apply_instruction st instr ~rng ~clbits:[| 0 |])
        (Circuit.instructions (Generators.ghz n));
      Alcotest.(check int)
        (Printf.sprintf "ghz(%d) nodes" n)
        (2 * n - 1)
        (Sim.node_count st))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Gate DDs                                                            *)
(* ------------------------------------------------------------------ *)

let test_identity_dd () =
  let mgr = Pkg.create () in
  let e = Build.identity mgr 3 in
  check_mat "I8" (Mat.identity 8) (Pkg.to_mat mgr e ~num_qubits:3);
  Alcotest.(check int) "identity chain" 3 (Pkg.node_count e)

(* One of every instruction shape: controls above and below the target,
   two controls, swaps with and without controls, parametric gates. *)
let instruction_cases =
  [
    ("h q0 of 1", 1, Circuit.Apply { gate = Gate.H; controls = []; target = 0 });
    ("h q1 of 3", 3, Circuit.Apply { gate = Gate.H; controls = []; target = 1 });
    ("x q2 of 3", 3, Circuit.Apply { gate = Gate.X; controls = []; target = 2 });
    ("cx 2->0", 3, Circuit.Apply { gate = Gate.X; controls = [ 2 ]; target = 0 });
    ("cx 0->2", 3, Circuit.Apply { gate = Gate.X; controls = [ 0 ]; target = 2 });
    ("cz 1,2", 3, Circuit.Apply { gate = Gate.Z; controls = [ 1 ]; target = 2 });
    ("ccx", 3, Circuit.Apply { gate = Gate.X; controls = [ 1; 2 ]; target = 0 });
    ("ccx mixed", 4, Circuit.Apply { gate = Gate.X; controls = [ 0; 3 ]; target = 1 });
    ("ct", 3, Circuit.Apply { gate = Gate.T; controls = [ 0 ]; target = 2 });
    ("swap 0,2", 3, Circuit.Swap { controls = []; a = 0; b = 2 });
    ("cswap", 3, Circuit.Swap { controls = [ 2 ]; a = 0; b = 1 });
    ("cswap below", 3, Circuit.Swap { controls = [ 0 ]; a = 1; b = 2 });
    ("rz", 2, Circuit.Apply { gate = Gate.Rz 0.7; controls = []; target = 1 });
    ("crz", 3, Circuit.Apply { gate = Gate.Rz (-1.3); controls = [ 2 ]; target = 0 });
    ( "cu3",
      3,
      Circuit.Apply
        { gate = Gate.U3 { theta = 0.4; phi = -0.2; lambda = 1.9 }; controls = [ 0 ]; target = 1 } );
    ("barrier", 2, Circuit.Barrier [ 0; 1 ]);
  ]

let check_instruction mgr (name, n, instr) =
  let dd = Build.instruction mgr ~num_qubits:n instr in
  let expect = Qdt_arraysim.Unitary_builder.instruction_matrix ~num_qubits:n instr in
  check_mat name expect (Pkg.to_mat mgr dd ~num_qubits:n);
  dd

let test_gate_dd_matches_arrays () =
  List.iter (fun case -> ignore (check_instruction (Pkg.create ()) case)) instruction_cases

(* The gate-DD cache: a repeat is answered without building, a collection
   empties it, and the qubit count is part of the key. *)
let test_gate_cache () =
  let mgr = Pkg.create () in
  (* A fresh value per call, as a parser gives each job. *)
  let cx () = List.hd (Circuit.instructions (Circuit.cx 0 2 (Circuit.empty 3))) in
  let instr = cx () and instr' = cx () in
  Alcotest.(check bool) "equal but distinct instructions" true (instr = instr' && instr != instr');
  let first = Build.instruction mgr ~num_qubits:3 instr in
  let before = Pkg.cache_stats mgr in
  let again = Build.instruction mgr ~num_qubits:3 instr' in
  let after = Pkg.cache_stats mgr in
  Alcotest.(check bool) "repeat returns the same edge" true (Pkg.edge_equal first again);
  Alcotest.(check int) "repeat makes no unique lookups" before.Pkg.unique_lookups
    after.Pkg.unique_lookups;
  Alcotest.(check int) "repeat is a gate hit" (before.Pkg.gate.Pkg.hits + 1) after.Pkg.gate.Pkg.hits;
  ignore (Pkg.gc mgr);
  Alcotest.(check int) "gc empties the gate cache" 0 (Pkg.cache_stats mgr).Pkg.gate.Pkg.fill;
  let rebuilt = check_instruction mgr ("cx after gc", 3, cx ()) in
  let after_gc = Pkg.cache_stats mgr in
  Alcotest.(check bool) "rebuilt after gc" true
    (after_gc.Pkg.unique_lookups > after.Pkg.unique_lookups
    && after_gc.Pkg.gate.Pkg.hits = after.Pkg.gate.Pkg.hits);
  Alcotest.(check bool) "rebuilt is cached again" true
    (Pkg.edge_equal rebuilt (Build.instruction mgr ~num_qubits:3 (cx ())));
  let h = Circuit.Apply { gate = Gate.H; controls = []; target = 0 } in
  let two = check_instruction mgr ("h of 2", 2, h) in
  let three = check_instruction mgr ("h of 3", 3, h) in
  Alcotest.(check bool) "two widths, two DDs" false (Pkg.edge_equal two three)

(* With two slots nearly every store evicts; every instruction shape must
   still come back as its own matrix, from a hit or a rebuild. *)
let test_gate_cache_tiny () =
  let mgr = Pkg.create ~cache_bits:1 () in
  for _ = 1 to 2 do
    List.iter
      (fun case ->
        ignore (check_instruction mgr case);
        ignore (check_instruction mgr case))
      instruction_cases
  done;
  let gate = (Pkg.cache_stats mgr).Pkg.gate in
  Alcotest.(check int) "two slots" 2 gate.Pkg.slots;
  Alcotest.(check bool) "hits and evictions both happened" true
    (gate.Pkg.hits > 0 && gate.Pkg.evictions > 0)

(* Slots are allocated on the first store: a 2^20-slot gate cache costs
   8 MB, which [create] must not pay. *)
let test_gate_cache_lazy () =
  let a0 = Gc.allocated_bytes () in
  let mgr = Pkg.create ~cache_bits:20 () in
  let a1 = Gc.allocated_bytes () in
  ignore (Build.instruction mgr ~num_qubits:1 (Circuit.Apply { gate = Gate.H; controls = []; target = 0 }));
  let a2 = Gc.allocated_bytes () in
  Alcotest.(check bool) (Printf.sprintf "create allocated %.0f bytes" (a1 -. a0)) true
    (a1 -. a0 < 1e6);
  Alcotest.(check bool) (Printf.sprintf "first store allocated %.0f bytes" (a2 -. a1)) true
    (a2 -. a1 >= 8e6)

let test_circuit_unitary_dd () =
  List.iter
    (fun (name, c) ->
      let mgr = Pkg.create () in
      let dd = Build.circuit_unitary mgr c in
      let expect = Qdt_arraysim.Unitary_builder.unitary c in
      check_mat name expect (Pkg.to_mat mgr dd ~num_qubits:(Circuit.num_qubits c)))
    [
      ("bell", Generators.bell);
      ("qft3", Generators.qft 3);
      ("random", Generators.random_circuit ~seed:17 ~depth:3 3);
      ("grover", Generators.grover_iterations ~marked:1 ~iterations:1 2);
    ]

let test_projector () =
  let mgr = Pkg.create () in
  let p = Build.projector_ones mgr 2 [ 1 ] in
  let expect =
    Mat.init 4 4 (fun r c -> if r = c && r land 2 <> 0 then Cx.one else Cx.zero)
  in
  check_mat "P(q1=1)" expect (Pkg.to_mat mgr p ~num_qubits:2)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let test_add () =
  let mgr = Pkg.create () in
  let v1 = Vec.of_array [| Cx.one; Cx.zero; Cx.i; Cx.zero |] in
  let v2 = Vec.of_array [| Cx.zero; Cx.of_float 2.0; Cx.i; Cx.one |] in
  let sum = Pkg.add mgr (Build.from_vec mgr v1) (Build.from_vec mgr v2) in
  check_vec "add" (Vec.add v1 v2) (Pkg.to_vec mgr sum ~num_qubits:2)

let test_add_cancellation () =
  let mgr = Pkg.create () in
  let v = Build.from_vec mgr (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) in
  let neg = Pkg.scale mgr Cx.minus_one v in
  let sum = Pkg.add mgr v neg in
  Alcotest.(check bool) "cancels to zero edge" true (Pkg.is_zero sum)

let test_mul_mm_adjoint_trace () =
  let mgr = Pkg.create () in
  let c = Generators.random_circuit ~seed:3 ~depth:3 3 in
  let u = Build.circuit_unitary mgr c in
  let udag = Pkg.adjoint mgr u in
  let prod = Pkg.mul_mm mgr udag u in
  check_mat "U†U = I" (Mat.identity 8) (Pkg.to_mat mgr prod ~num_qubits:3);
  let tr = Pkg.trace mgr prod in
  Alcotest.(check bool) "trace = 8" true (Cx.approx_equal ~eps:1e-7 (Cx.of_float 8.0) tr)

let test_kron () =
  let mgr = Pkg.create () in
  let upper = Build.from_vec mgr (Vec.of_array [| s2; s2 |]) in
  let lower = Build.from_vec mgr (Vec.of_array [| Cx.zero; Cx.one |]) in
  let prod = Pkg.kron mgr ~lower_qubits:1 upper lower in
  check_vec "kron |+>|1>"
    (Vec.of_array [| Cx.zero; s2; Cx.zero; s2 |])
    (Pkg.to_vec mgr prod ~num_qubits:2);
  (* matrix kron: H ⊗ I = gate dd of H on q1 *)
  let h_up = Build.gate mgr ~num_qubits:1 ~controls:[] ~target:0 Gates.h in
  let id1 = Build.identity mgr 1 in
  let hk = Pkg.kron mgr ~lower_qubits:1 h_up id1 in
  let expect = Build.gate mgr ~num_qubits:2 ~controls:[] ~target:1 Gates.h in
  Alcotest.(check bool) "H⊗I shares node" true (Pkg.edge_equal hk expect)

let test_inner () =
  let mgr = Pkg.create () in
  let a = Build.from_vec mgr (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) in
  let b = Build.basis_state mgr 2 0 in
  Alcotest.(check bool) "<bell|00>" true
    (Cx.approx_equal ~eps:1e-9 s2 (Pkg.inner mgr a b));
  Alcotest.(check bool) "<bell|bell>" true
    (Cx.approx_equal ~eps:1e-9 Cx.one (Pkg.inner mgr a a))

(* ------------------------------------------------------------------ *)
(* Simulation agrees with arrays                                       *)
(* ------------------------------------------------------------------ *)

let circuits_to_cross_check =
  [
    ("bell", Generators.bell);
    ("ghz5", Generators.ghz 5);
    ("w4", Generators.w_state 4);
    ("qft4", Generators.qft 4);
    ("grover3", Generators.grover ~marked:5 3);
    ("bv", Generators.bernstein_vazirani ~secret:11 4);
    ("adder", Generators.cuccaro_adder 2);
    ("random1", Generators.random_circuit ~seed:1 ~depth:4 4);
    ("random2", Generators.random_circuit ~seed:2 ~depth:6 3);
    ("clifford_t", Generators.random_clifford_t ~seed:5 ~gates:60 ~t_fraction:0.2 4);
    ("phase_est", Generators.phase_estimation ~phase:0.3125 4);
  ]

let test_sim_matches_arrays () =
  List.iter
    (fun (name, c) ->
      let dd = Sim.run_unitary c in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      check_vec name (Qdt_arraysim.Statevector.to_vec sv) (Sim.to_vec dd))
    circuits_to_cross_check

let test_sim_measurement () =
  let c = Circuit.measure_all Generators.bell in
  let seen = Hashtbl.create 4 in
  for seed = 0 to 63 do
    let _, clbits = Sim.run ~seed c in
    Alcotest.(check int) "correlated" clbits.(0) clbits.(1);
    Hashtbl.replace seen clbits.(0) ()
  done;
  Alcotest.(check int) "both outcomes" 2 (Hashtbl.length seen)

let test_sim_sampling () =
  let st, _ = Sim.run (Generators.ghz 6) in
  let counts = Sim.sample ~seed:9 st ~shots:1000 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  Alcotest.(check int) "all shots" 1000 total;
  List.iter
    (fun (k, c) ->
      Alcotest.(check bool) "only extremes" true (k = 0 || k = 63);
      Alcotest.(check bool) "balanced" true (c > 400 && c < 600))
    counts

let test_sim_w_sampling () =
  let st, _ = Sim.run (Generators.w_state 5) in
  let counts = Sim.sample ~seed:4 st ~shots:2000 in
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) "one-hot only" true (List.mem k [ 1; 2; 4; 8; 16 ]))
    counts;
  Alcotest.(check int) "all five appear" 5 (List.length counts)

(* Norms memoised on the node change no draw: on random states (automatic
   collections included) [Sim.sample] gives the counts of the per-call
   [Hashtbl] sampler it replaced, and every node's [subtree_norm2] is that
   sampler's norm bit for bit. *)
let test_sampling_matches_reference () =
  let rng = Random.State.make [| 23 |] in
  let mgr = Pkg.create ~gc_threshold:64 () in
  for trial = 1 to 40 do
    let n = 1 + Random.State.int rng 8 in
    let seed = Random.State.bits rng in
    let c =
      if trial mod 2 = 0 then Generators.random_circuit ~seed ~depth:3 n
      else Generators.random_clifford_t ~seed ~gates:50 ~t_fraction:0.3 n
    in
    let st = Sim.make mgr n in
    List.iter
      (fun instr -> Sim.apply_instruction st instr ~rng ~clbits:[||])
      (Circuit.instructions c);
    let root = Sim.root st in
    for _ = 1 to 2 do
      let seed = Random.State.bits rng and shots = 1 + Random.State.int rng 400 in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "trial %d, seed %d, %d shots" trial seed shots)
        (Qdt_ref.Dd_sample_ref.sample ~seed root ~shots)
        (Sim.sample ~seed st ~shots)
    done;
    let norms = Qdt_ref.Dd_sample_ref.subtree_norms root in
    let rec check (e : Pkg.edge) =
      match e.Pkg.target with
      | Pkg.Terminal -> ()
      | Pkg.Node nd ->
          let expected = Hashtbl.find norms nd.Pkg.id in
          if Pkg.subtree_norm2 e <> expected then
            Alcotest.failf "trial %d, node %d: subtree_norm2 %h, reference %h" trial
              nd.Pkg.id (Pkg.subtree_norm2 e) expected;
          Array.iter check nd.Pkg.edges
    in
    check root;
    Sim.release st
  done

let test_prob_expectation () =
  let st, _ = Sim.run (Generators.w_state 4) in
  Alcotest.(check (float 1e-9)) "prob_one" 0.25 (Sim.prob_one st 2);
  Alcotest.(check (float 1e-9)) "<Z>" 0.5 (Sim.expectation_z st 2)

let test_sim_fidelity () =
  let mgr = Pkg.create () in
  let a = Sim.make mgr 3 and b = Sim.make mgr 3 in
  let rng = Random.State.make [| 0 |] in
  List.iter
    (fun instr -> Sim.apply_instruction a instr ~rng ~clbits:[| 0 |])
    (Circuit.instructions (Generators.ghz 3));
  Alcotest.(check (float 1e-9)) "<ghz|000>^2" 0.5 (Sim.fidelity a b);
  Alcotest.(check (float 1e-9)) "self" 1.0 (Sim.fidelity a a)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop k = k + nl <= hl && (String.sub haystack k nl = needle || loop (k + 1)) in
  loop 0

let test_dot_export () =
  let mgr = Pkg.create () in
  let bell = Build.from_vec mgr (Vec.of_array [| s2; Cx.zero; Cx.zero; s2 |]) in
  let dot = Export.to_dot mgr bell in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph dd" dot);
  Alcotest.(check bool) "q1 node" true (contains ~needle:"q1" dot);
  Alcotest.(check bool) "0-stub" true (contains ~needle:"shape=square" dot)

(* ------------------------------------------------------------------ *)
(* Memory management: refcounts, GC, bounded caches                    *)
(* ------------------------------------------------------------------ *)

let test_refcount () =
  let mgr = Pkg.create () in
  let e = Build.basis_state mgr 3 1 in
  Alcotest.(check int) "fresh node rc" 0 (Pkg.refcount e);
  Pkg.ref_edge mgr e;
  Pkg.ref_edge mgr e;
  Alcotest.(check int) "rc after two refs" 2 (Pkg.refcount e);
  Pkg.unref_edge mgr e;
  Alcotest.(check int) "rc after unref" 1 (Pkg.refcount e);
  Pkg.unref_edge mgr e

let test_gc_collects () =
  let mgr = Pkg.create ~gc_threshold:0 () in
  let st = Random.State.make [| 11 |] in
  let random_vec () =
    Vec.normalize
      (Vec.init 16 (fun _ ->
           Cx.make (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0)))
  in
  let keep = Build.from_vec mgr (random_vec ()) in
  Pkg.ref_edge mgr keep;
  let keep_vec = Pkg.to_vec mgr keep ~num_qubits:4 in
  for _ = 1 to 8 do
    ignore (Build.from_vec mgr (random_vec ()))
  done;
  let before = Pkg.unique_table_size mgr in
  let collected = Pkg.gc mgr in
  Alcotest.(check bool) "collected garbage" true (collected > 0);
  Alcotest.(check bool) "table shrank" true (Pkg.unique_table_size mgr < before);
  Alcotest.(check int) "only the pinned state survives" (Pkg.node_count keep)
    (Pkg.unique_table_size mgr);
  check_vec "pinned amplitudes intact" keep_vec (Pkg.to_vec mgr keep ~num_qubits:4);
  Pkg.unref_edge mgr keep;
  ignore (Pkg.gc mgr);
  Alcotest.(check int) "everything collected once unpinned" 0 (Pkg.unique_table_size mgr);
  Alcotest.(check int) "cnum table back to {0, 1}" 2 (Pkg.cnum_live_entries mgr);
  let stats = Pkg.cache_stats mgr in
  Alcotest.(check int) "gc runs counted" 2 stats.Pkg.gc_runs;
  Alcotest.(check bool) "cnums swept" true (stats.Pkg.cnums_collected > 0)

let test_auto_gc_trigger () =
  let mgr = Pkg.create ~gc_threshold:64 () in
  let c = Generators.random_clifford_t ~seed:3 ~gates:120 ~t_fraction:0.3 5 in
  let st = Sim.make mgr 5 in
  let rng = Random.State.make [| 0 |] in
  let clbits = Array.make 1 0 in
  List.iter
    (fun instr -> Sim.apply_instruction st instr ~rng ~clbits)
    (Circuit.instructions c);
  let stats = Pkg.cache_stats mgr in
  Alcotest.(check bool) "threshold triggered collections" true (stats.Pkg.gc_runs > 0);
  Alcotest.(check bool) "peak recorded" true (stats.Pkg.peak_nodes >= stats.Pkg.live_nodes);
  let sv = Qdt_arraysim.Statevector.run_unitary c in
  check_vec "state matches arrays despite GC"
    (Qdt_arraysim.Statevector.to_vec sv)
    (Sim.to_vec st)

(* Reference node count and footprint: a walk with a [Hashtbl] of
   visited ids. *)
let reference_walk (e : Pkg.edge) =
  let seen = Hashtbl.create 64 in
  let count = ref 0 and bytes = ref 0 in
  let rec walk = function
    | Pkg.Terminal -> ()
    | Pkg.Node n ->
        if not (Hashtbl.mem seen n.Pkg.id) then begin
          Hashtbl.replace seen n.Pkg.id ();
          incr count;
          bytes := !bytes + 16 + (32 * Array.length n.Pkg.edges);
          Array.iter (fun (c : Pkg.edge) -> walk c.Pkg.target) n.Pkg.edges
        end
  in
  walk e.Pkg.target;
  (!count, !bytes)

(* States and operators on one manager, sharing subgraphs: vectors built
   from a few repeated amplitudes, circuit states, their sum, and circuit
   unitaries. *)
let shared_dds seed =
  let mgr = Pkg.create () in
  let rng = Random.State.make [| seed |] in
  let palette = Array.init 3 (fun _ -> Cx.make (Random.State.float rng 1.0) 0.0) in
  let blocky n =
    Build.from_vec mgr
      (Vec.init (1 lsl n) (fun k -> if k land 3 = 0 then Cx.zero else palette.((k lsr 2) mod 3)))
  in
  let state n =
    let st = Sim.make mgr n in
    let c = Generators.random_clifford_t ~seed:(Random.State.bits rng) ~gates:40 ~t_fraction:0.3 n in
    List.iter
      (fun instr -> Sim.apply_instruction st instr ~rng ~clbits:[||])
      (Circuit.instructions c);
    Sim.root st
  in
  let a = state 6 and b = state 6 in
  let u = Build.circuit_unitary mgr (Generators.random_circuit ~seed:(Random.State.bits rng) ~depth:4 4) in
  [ blocky 7; a; b; Pkg.add mgr a b; u; Pkg.mul_mm mgr u u; Build.identity mgr 5 ]

let root_stamp (e : Pkg.edge) =
  match e.Pkg.target with Pkg.Node n -> n.Pkg.stamp | Pkg.Terminal -> -1

let check_counts name (e : Pkg.edge) =
  let count, bytes = reference_walk e in
  Alcotest.(check int) (name ^ ": node_count") count (Pkg.node_count e);
  Alcotest.(check int) (name ^ ": memory_bytes") bytes (Pkg.memory_bytes e);
  let stamp = root_stamp e in
  Alcotest.(check int) (name ^ ": recount") count (Pkg.node_count e);
  (* The recount is a memo hit: it walks nothing, so stamps nothing. *)
  Alcotest.(check int) (name ^ ": recount walks nothing") stamp (root_stamp e)

let test_node_count_matches_walk () =
  List.iteri
    (fun i e ->
      check_counts (Printf.sprintf "dd %d" i) e;
      (* A sub-diagram counted after its parent is counted afresh. *)
      match e.Pkg.target with
      | Pkg.Node n -> check_counts (Printf.sprintf "dd %d child" i) n.Pkg.edges.(0)
      | Pkg.Terminal -> ())
    (shared_dds 5)

(* Two domains count two managers' diagrams at once: stamps come from one
   atomic epoch, so neither walk can mistake the other's marks for its
   own. *)
let test_node_count_two_domains () =
  let worker seed () =
    let dds = shared_dds seed in
    let expected = List.map reference_walk dds in
    let bad = ref 0 in
    for _ = 1 to 300 do
      List.iter2
        (fun e (count, bytes) ->
          if Pkg.node_count e <> count || Pkg.memory_bytes e <> bytes then incr bad)
        dds expected
    done;
    !bad
  in
  let d1 = Domain.spawn (worker 101) and d2 = Domain.spawn (worker 202) in
  let bad1 = Domain.join d1 and bad2 = Domain.join d2 in
  Alcotest.(check (pair int int)) "no miscounts" (0, 0) (bad1, bad2)

(* Memoised counts stay true when a manager runs a circuit twice with a
   collection in between.  Every other state of the first run is pinned
   through the collection, so the second run meets those roots again
   (memo hits) and rebuilds the others under fresh ids. *)
let test_node_count_memo_across_gc () =
  let rng = Random.State.make [| 19 |] in
  for trial = 1 to 12 do
    let n = 3 + Random.State.int rng 6 in
    let c =
      Generators.random_clifford_t ~seed:(Random.State.bits rng) ~gates:60 ~t_fraction:0.3 n
    in
    let mgr = Pkg.create () in
    let run pass =
      let st = Sim.make mgr n in
      let hits = ref 0 in
      let roots =
        List.mapi
          (fun i instr ->
            Sim.apply_instruction st instr ~rng ~clbits:[||];
            let root = Sim.root st in
            (match root.Pkg.target with
            | Pkg.Node nd when nd.Pkg.size > 0 -> incr hits
            | _ -> ());
            Alcotest.(check int)
              (Printf.sprintf "trial %d, pass %d, instruction %d" trial pass i)
              (fst (reference_walk root)) (Pkg.node_count root);
            root)
          (Circuit.instructions c)
      in
      Sim.release st;
      (roots, !hits)
    in
    let kept = List.filteri (fun i _ -> i mod 2 = 0) (fst (run 1)) in
    List.iter (Pkg.ref_edge mgr) kept;
    ignore (Pkg.gc mgr);
    let _, hits = run 2 in
    List.iter (Pkg.unref_edge mgr) kept;
    if hits = 0 then Alcotest.failf "trial %d: the second run met no counted root" trial
  done

(* The unique table grows past its initial buckets and still hash-conses:
   rebuilding the same 2^14-entry vector finds every node. *)
let test_unique_table_growth () =
  let mgr = Pkg.create () in
  let rng = Random.State.make [| 9 |] in
  let v = Vec.init (1 lsl 14) (fun _ -> Cx.make (Random.State.float rng 1.0) 0.0) in
  let e = Build.from_vec mgr v in
  let size = Pkg.unique_table_size mgr in
  Alcotest.(check bool) "past the initial 4096 buckets" true (size > 8192);
  let again = Build.from_vec mgr v in
  Alcotest.(check bool) "same edge" true (Pkg.edge_equal e again);
  Alcotest.(check int) "no new nodes" size (Pkg.unique_table_size mgr)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_dd_matches_array_sim =
  QCheck.Test.make ~name:"DD sim = array sim on random circuits" ~count:25
    (QCheck.make QCheck.Gen.(pair (int_range 1 5) (int_range 0 10000)))
    (fun (n, seed) ->
      let c = Generators.random_circuit ~seed ~depth:3 n in
      let dd = Sim.run_unitary c in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      Vec.approx_equal ~eps:1e-7 (Qdt_arraysim.Statevector.to_vec sv) (Sim.to_vec dd))

let prop_canonicity =
  QCheck.Test.make ~name:"same vector -> same edge" ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 10000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let mgr = Pkg.create () in
      let v =
        Vec.normalize
          (Vec.init 16 (fun _ ->
               Cx.make
                 (Random.State.float st 2.0 -. 1.0)
                 (Random.State.float st 2.0 -. 1.0)))
      in
      let a = Build.from_vec mgr v and b = Build.from_vec mgr v in
      Pkg.edge_equal a b)

let prop_unitarity_preserved =
  QCheck.Test.make ~name:"DD norm preserved" ~count:20
    (QCheck.make QCheck.Gen.(pair (int_range 1 4) (int_range 0 1000)))
    (fun (n, seed) ->
      let c = Generators.random_clifford_t ~seed ~gates:40 ~t_fraction:0.25 n in
      let st = Sim.run_unitary c in
      let mgr = Sim.manager st in
      Float.abs ((Pkg.inner mgr (Sim.root st) (Sim.root st)).Cx.re -. 1.0) < 1e-7)

(* Run a circuit on [mgr], forcing a full collection after every
   instruction when [force_gc] — the harshest schedule the refcount
   protocol must survive. *)
let run_on_manager ?(force_gc = false) mgr c =
  let st = Sim.make mgr (Circuit.num_qubits c) in
  let rng = Random.State.make [| 0 |] in
  let clbits = Array.make (max 1 (Circuit.num_clbits c)) 0 in
  List.iter
    (fun instr ->
      Sim.apply_instruction st instr ~rng ~clbits;
      if force_gc then ignore (Pkg.gc mgr))
    (Circuit.instructions c);
  st

let prop_gc_preserves_results =
  QCheck.Test.make ~name:"forced GC after every instruction preserves the state"
    ~count:20
    (QCheck.make QCheck.Gen.(pair (int_range 1 5) (int_range 0 10000)))
    (fun (n, seed) ->
      let c = Generators.random_circuit ~seed ~depth:3 n in
      let st = run_on_manager ~force_gc:true (Pkg.create ~gc_threshold:0 ()) c in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      Vec.approx_equal ~eps:1e-7 (Qdt_arraysim.Statevector.to_vec sv) (Sim.to_vec st))

let prop_canonicity_across_gc =
  QCheck.Test.make ~name:"canonicity survives a collection" ~count:25
    (QCheck.make QCheck.Gen.(int_range 0 10000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let mgr = Pkg.create ~gc_threshold:0 () in
      let random_vec () =
        Vec.normalize
          (Vec.init 16 (fun _ ->
               Cx.make
                 (Random.State.float st 2.0 -. 1.0)
                 (Random.State.float st 2.0 -. 1.0)))
      in
      let v = random_vec () in
      let a = Build.from_vec mgr v in
      Pkg.ref_edge mgr a;
      ignore (Build.from_vec mgr (random_vec ()));
      ignore (Pkg.gc mgr);
      (* Rebuilding the same vector must hash-cons onto the survivor. *)
      let b = Build.from_vec mgr v in
      Pkg.edge_equal a b)

let prop_tiny_cache_safe =
  QCheck.Test.make ~name:"cache eviction never changes results" ~count:20
    (QCheck.make QCheck.Gen.(pair (int_range 1 5) (int_range 0 10000)))
    (fun (n, seed) ->
      let c = Generators.random_circuit ~seed ~depth:3 n in
      (* Two slots per compute cache: almost every store evicts. *)
      let st = run_on_manager (Pkg.create ~cache_bits:1 ()) c in
      let sv = Qdt_arraysim.Statevector.run_unitary c in
      Vec.approx_equal ~eps:1e-7 (Qdt_arraysim.Statevector.to_vec sv) (Sim.to_vec st))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dd_matches_array_sim;
      prop_canonicity;
      prop_unitarity_preserved;
      prop_gc_preserves_results;
      prop_canonicity_across_gc;
      prop_tiny_cache_safe;
    ]

let () =
  Alcotest.run "qdt_dd"
    [
      ( "cnum",
        [
          Alcotest.test_case "canonical" `Quick test_cnum_canonical;
          Alcotest.test_case "boundary" `Quick test_cnum_boundary;
          Alcotest.test_case "matches reference" `Quick test_cnum_matches_reference;
        ] );
      ( "build",
        [
          Alcotest.test_case "basis states" `Quick test_basis_states;
          Alcotest.test_case "from_vec roundtrip" `Quick test_from_vec_roundtrip;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "paper fig 1" `Quick test_bell_dd_fig1;
          Alcotest.test_case "ghz linear" `Quick test_ghz_nodes_linear;
          Alcotest.test_case "identity" `Quick test_identity_dd;
          Alcotest.test_case "projector" `Quick test_projector;
        ] );
      ( "gates",
        [
          Alcotest.test_case "gate dds vs arrays" `Quick test_gate_dd_matches_arrays;
          Alcotest.test_case "gate cache" `Quick test_gate_cache;
          Alcotest.test_case "gate cache, two slots" `Quick test_gate_cache_tiny;
          Alcotest.test_case "gate cache allocated lazily" `Quick test_gate_cache_lazy;
          Alcotest.test_case "circuit unitary" `Quick test_circuit_unitary_dd;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "cancellation" `Quick test_add_cancellation;
          Alcotest.test_case "mul/adjoint/trace" `Quick test_mul_mm_adjoint_trace;
          Alcotest.test_case "kron" `Quick test_kron;
          Alcotest.test_case "inner" `Quick test_inner;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "matches arrays" `Quick test_sim_matches_arrays;
          Alcotest.test_case "measurement" `Quick test_sim_measurement;
          Alcotest.test_case "sampling ghz" `Quick test_sim_sampling;
          Alcotest.test_case "sampling w" `Quick test_sim_w_sampling;
          Alcotest.test_case "sampling = reference" `Quick test_sampling_matches_reference;
          Alcotest.test_case "prob/expectation" `Quick test_prob_expectation;
          Alcotest.test_case "fidelity" `Quick test_sim_fidelity;
        ] );
      ( "memory",
        [
          Alcotest.test_case "refcounts" `Quick test_refcount;
          Alcotest.test_case "gc collects" `Quick test_gc_collects;
          Alcotest.test_case "auto gc trigger" `Quick test_auto_gc_trigger;
          Alcotest.test_case "node count = visited-set walk" `Quick test_node_count_matches_walk;
          Alcotest.test_case "node count in two domains" `Quick test_node_count_two_domains;
          Alcotest.test_case "node count memo across gc" `Quick test_node_count_memo_across_gc;
          Alcotest.test_case "unique table growth" `Quick test_unique_table_growth;
        ] );
      ("export", [ Alcotest.test_case "dot" `Quick test_dot_export ]);
      ("properties", props);
    ]
