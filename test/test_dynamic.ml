(* Tests for dynamic circuits: the If IR node and its validation, QASM
   round-tripping of measure/reset/barrier/if, the static/dynamic shot
   plan, per-shot execution semantics on arrays, decision diagrams and
   the stabilizer tableau, and the typed declines of the backends that
   cannot run classical control. *)

open Qdt_circuit
module Backend = Qdt.Backend
module Registry = Qdt.Registry
module Shot_engine = Qdt.Shot_engine
module Sv = Qdt_arraysim.Statevector

let get name =
  match Registry.find_session name with
  | Some m -> m
  | None -> Alcotest.failf "backend %s not registered" name

let check_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let shots_of counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

(* Probability that bit [bit] of the counts key is 1. *)
let p_bit counts bit =
  let total = shots_of counts in
  let ones =
    List.fold_left
      (fun acc (k, n) -> if (k lsr bit) land 1 = 1 then acc + n else acc)
      0 counts
  in
  float_of_int ones /. float_of_int (max 1 total)

let sample backend ?(seed = 11) ?(shots = 2000) c =
  match Backend.run_once (get backend) c (Qdt.Job.Sample { seed; shots }) with
  | Ok (Qdt.Job.Counts counts, _) -> counts
  | Ok _ -> Alcotest.failf "%s: not a counts payload" backend
  | Error e -> Alcotest.fail (Backend.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Construction-time validation                                        *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  let c = Circuit.empty 2 ~clbits:2 in
  let no_creg = Circuit.empty 2 in
  check_invalid "if without creg" (fun () ->
      Circuit.if_eq 1 (Circuit.Apply { gate = Gate.X; controls = []; target = 0 }) no_creg);
  check_invalid "negative guard value" (fun () -> Circuit.if_x (-1) 0 c);
  check_invalid "guard value exceeds register" (fun () -> Circuit.if_x 4 0 c);
  check_invalid "nested if" (fun () ->
      Circuit.add
        (Circuit.If
           { value = 1; instr = Circuit.If { value = 0; instr = Circuit.Reset 0 } })
        c);
  check_invalid "conditional barrier" (fun () ->
      Circuit.if_eq 1 (Circuit.Barrier [ 0 ]) c);
  check_invalid "guarded qubit out of range" (fun () -> Circuit.if_x 1 5 c);
  (* Satellite: clbit and qubit indices are validated at construction. *)
  check_invalid "measure clbit out of range" (fun () ->
      Circuit.measure ~qubit:0 ~clbit:2 c);
  check_invalid "measure qubit out of range" (fun () ->
      Circuit.measure ~qubit:2 ~clbit:0 c);
  check_invalid "measure without creg" (fun () ->
      Circuit.measure ~qubit:0 ~clbit:0 no_creg);
  (* Legal constructions are accepted. *)
  let ok = c |> Circuit.if_x 3 1 |> Circuit.if_eq 2 (Circuit.Reset 0) in
  Alcotest.(check int) "two conditionals" 2 (Circuit.length ok)

let test_ir_predicates () =
  let unitary = Circuit.empty 2 |> Circuit.h 0 |> Circuit.cx 0 1 in
  Alcotest.(check bool) "unitary not dynamic" false (Circuit.is_dynamic unitary);
  let terminal =
    Circuit.empty 2 ~clbits:2 |> Circuit.h 0 |> Circuit.cx 0 1
    |> Circuit.measure ~qubit:0 ~clbit:0
    |> Circuit.measure ~qubit:1 ~clbit:1
  in
  Alcotest.(check bool) "terminal measure not dynamic" false
    (Circuit.is_dynamic terminal);
  let midcircuit =
    Circuit.empty 2 ~clbits:1
    |> Circuit.measure ~qubit:0 ~clbit:0
    |> Circuit.x 0
  in
  Alcotest.(check bool) "measured qubit reused" true (Circuit.is_dynamic midcircuit);
  let with_reset = Circuit.empty 1 |> Circuit.reset 0 in
  Alcotest.(check bool) "reset is dynamic" true (Circuit.is_dynamic with_reset);
  let with_if = Circuit.empty 1 ~clbits:1 |> Circuit.if_x 1 0 in
  Alcotest.(check bool) "if is dynamic" true (Circuit.is_dynamic with_if);
  Alcotest.(check bool) "has_conditionals" true (Circuit.has_conditionals with_if);
  Alcotest.(check bool) "no conditionals" false (Circuit.has_conditionals terminal);
  Alcotest.(check int) "creg packs bit k" 5 (Circuit.creg_value [| 1; 0; 1 |]);
  check_invalid "adjoint rejects if" (fun () -> Circuit.adjoint with_if)

let test_shot_plan () =
  let unitary = Circuit.empty 2 |> Circuit.h 0 |> Circuit.cx 0 1 in
  (match Shot_engine.plan unitary with
  | Shot_engine.Static_unitary -> ()
  | _ -> Alcotest.fail "unitary circuit should plan Static_unitary");
  let terminal =
    Circuit.empty 2 ~clbits:2 |> Circuit.h 0 |> Circuit.cx 0 1
    |> Circuit.measure ~qubit:0 ~clbit:0
    |> Circuit.measure ~qubit:1 ~clbit:1
  in
  (match Shot_engine.plan terminal with
  | Shot_engine.Static_final { unitary; map } ->
      Alcotest.(check int) "stripped to gates" 2 (Circuit.length unitary);
      Alcotest.(check (list (pair int int))) "wiring" [ (0, 0); (1, 1) ] map
  | _ -> Alcotest.fail "terminal measurements should plan Static_final");
  (match Shot_engine.plan (Generators.teleportation ()) with
  | Shot_engine.Dynamic -> ()
  | _ -> Alcotest.fail "teleportation should plan Dynamic");
  (* Remapping swaps sampled qubit bits onto clbits; later writes win. *)
  Alcotest.(check (list (pair int int)))
    "remap aggregates" [ (0, 3); (1, 7) ]
    (Shot_engine.remap_counts ~map:[ (0, 0); (1, 0) ] [ (1, 3); (2, 4); (3, 3) ])

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_draw_marker () =
  let c = Circuit.empty 2 ~clbits:2 |> Circuit.h 0 |> Circuit.if_x 2 1 in
  let text = Draw.render c in
  Alcotest.(check bool) "guard tag rendered" true (contains text "?2")

(* ------------------------------------------------------------------ *)
(* QASM                                                                *)
(* ------------------------------------------------------------------ *)

let test_qasm_if_parse () =
  let c =
    Qasm.of_string
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[2];\n\
       if(c==3) x q[2];\nif(c==1) measure q[0] -> c[1];\nif(c==2) reset q[1];\n"
  in
  match Circuit.instructions c with
  | [
   Circuit.If { value = 3; instr = Circuit.Apply { gate = Gate.X; controls = []; target = 2 } };
   Circuit.If { value = 1; instr = Circuit.Measure { qubit = 0; clbit = 1 } };
   Circuit.If { value = 2; instr = Circuit.Reset 1 };
  ] ->
      ()
  | _ -> Alcotest.failf "unexpected parse:\n%s" (Qasm.to_string c)

let test_qasm_single_equals_rejected () =
  match
    Qasm.of_string
      "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif(c=1) x q[0];\n"
  with
  | exception Qasm.Parse_error msg ->
      Alcotest.(check bool) "mentions ==" true (contains msg "==")
  | _ -> Alcotest.fail "single '=' must be rejected"

let roundtrip c =
  let text = Qasm.to_string c in
  let c' = Qasm.of_string text in
  if not (Circuit.equal c c') then
    Alcotest.failf "round-trip mismatch:\n%s\nreparsed:\n%s" text
      (Qasm.to_string c')

let test_qasm_roundtrip_workloads () =
  roundtrip (Generators.teleportation ());
  roundtrip (Generators.repeat_until_success ~rounds:2 ());
  roundtrip (Generators.repetition_code ~cycles:2 ());
  roundtrip (Generators.repetition_code ~error:true ())

(* Randomized print-then-parse identity over circuits that mix gates,
   measurements, resets, barriers and classical control. *)
let random_dynamic_circuit =
  let open QCheck.Gen in
  let n = 3 and clbits = 2 in
  let instr =
    frequency
      [
        ( 5,
          let* g = oneofl [ Gate.H; Gate.X; Gate.Z; Gate.S; Gate.T ] in
          let* q = int_bound (n - 1) in
          return (Circuit.Apply { gate = g; controls = []; target = q }) );
        ( 2,
          let* q = int_bound (n - 2) in
          return (Circuit.Apply { gate = Gate.X; controls = [ q ]; target = q + 1 }) );
        ( 1,
          let* theta = oneofl [ 0.25; 1.0; Float.pi /. 3.0 ] in
          let* q = int_bound (n - 1) in
          return (Circuit.Apply { gate = Gate.Rz theta; controls = []; target = q }) );
        ( 2,
          let* q = int_bound (n - 1) in
          let* k = int_bound (clbits - 1) in
          return (Circuit.Measure { qubit = q; clbit = k }) );
        ( 1,
          let* q = int_bound (n - 1) in
          return (Circuit.Reset q) );
        (1, return (Circuit.Barrier [ 0; 2 ]));
      ]
  in
  let guarded =
    let* i = instr in
    let* v = int_bound ((1 lsl clbits) - 1) in
    match i with
    | Circuit.Barrier _ -> return i
    | _ -> return (Circuit.If { value = v; instr = i })
  in
  let* len = int_range 0 12 in
  let* instrs = list_size (return len) (frequency [ (3, instr); (1, guarded) ]) in
  return
    (List.fold_left
       (fun acc i -> Circuit.add i acc)
       (Circuit.empty n ~clbits)
       instrs)

let qasm_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"qasm print/parse identity"
    (QCheck.make random_dynamic_circuit)
    (fun c -> Circuit.equal c (Qasm.of_string (Qasm.to_string c)))

(* ------------------------------------------------------------------ *)
(* Execution semantics                                                 *)
(* ------------------------------------------------------------------ *)

(* Static circuits must keep the historical RNG stream: backend sampling
   of a unitary circuit is bit-identical to running the statevector at
   [seed] and sampling the final state at [seed + 1]. *)
let test_static_rng_stream () =
  let c = Generators.ghz 4 in
  let seed = 17 and shots = 500 in
  let counts = sample "arrays" ~seed ~shots c in
  let sv, _clbits = Sv.run ~seed c in
  let expected = Sv.sample ~seed:(seed + 1) sv ~shots in
  Alcotest.(check (list (pair int int))) "bit-identical counts" expected counts

let test_teleportation_backends () =
  let c = Generators.teleportation () in
  List.iter
    (fun backend ->
      let counts = sample backend ~shots:2000 c in
      Alcotest.(check int) "all shots kept" 2000 (shots_of counts);
      List.iter
        (fun (k, _) ->
          if k < 0 || k > 7 then Alcotest.failf "key %d out of creg range" k)
        counts;
      (* The teleported |+>-prep qubit measures 1 with probability 1/2. *)
      let p = p_bit counts 2 in
      if Float.abs (p -. 0.5) > 0.05 then
        Alcotest.failf "p(c2=1) = %.3f, expected 0.5" p)
    [ "arrays"; "decision-diagrams"; "stabilizer" ]

(* Cross-backend agreement: same physics, so the teleported marginal of
   every backend lands within statistical tolerance of the others. *)
let test_teleportation_agreement () =
  let c = Generators.teleportation () in
  let marginals =
    List.map
      (fun backend -> p_bit (sample backend ~seed:7 ~shots:2000 c) 2)
      [ "arrays"; "decision-diagrams"; "stabilizer" ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun p' ->
          if Float.abs (p -. p') > 0.06 then
            Alcotest.failf "backend marginals disagree: %.3f vs %.3f" p p')
        marginals)
    marginals

let test_teleportation_theta_prep () =
  (* ry(theta) |0> has |1|^2 = sin^2(theta/2); pick p = 0.2. *)
  let p_target = 0.2 in
  let theta = 2.0 *. Float.asin (Float.sqrt p_target) in
  let c = Generators.teleportation ~prep:(Circuit.ry theta 0) () in
  List.iter
    (fun backend ->
      let p = p_bit (sample backend ~seed:23 ~shots:4000 c) 2 in
      if Float.abs (p -. p_target) > 0.04 then
        Alcotest.failf "p(c2=1) = %.3f, expected %.3f" p p_target)
    [ "arrays"; "decision-diagrams" ]

let test_repeat_until_success () =
  let rounds = 3 in
  let c = Generators.repeat_until_success ~rounds () in
  let p_round = Float.pow (Float.sin (Float.pi /. 8.0)) 2.0 in
  let p_success = 1.0 -. Float.pow (1.0 -. p_round) (float_of_int rounds) in
  List.iter
    (fun backend ->
      let counts = sample backend ~seed:3 ~shots:4000 c in
      List.iter
        (fun (k, _) ->
          if k <> 0 && k <> 3 then Alcotest.failf "unexpected RUS key %d" k)
        counts;
      let p =
        float_of_int (Option.value ~default:0 (List.assoc_opt 3 counts))
        /. 4000.0
      in
      if Float.abs (p -. p_success) > 0.04 then
        Alcotest.failf "p(success) = %.3f, expected %.3f" p p_success)
    [ "arrays"; "decision-diagrams" ]

let test_repetition_code () =
  List.iter
    (fun error ->
      let c = Generators.repetition_code ~cycles:2 ~error () in
      List.iter
        (fun backend ->
          let counts = sample backend ~shots:300 c in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "error=%b corrected to |000>" error)
            [ (0, 300) ] counts)
        [ "arrays"; "decision-diagrams"; "stabilizer" ])
    [ false; true ]

(* Trajectories execute dynamic circuits through the statevector's
   conditional-aware instruction loop; with a zero-strength channel the
   teleported marginal matches the ideal 1/2. *)
let test_trajectories_dynamic () =
  let c = Generators.teleportation () in
  let noise = Qdt_arraysim.Trajectories.bit_flip 0.0 in
  let trials = 400 in
  let ones = ref 0 in
  for t = 0 to trials - 1 do
    let sv = Qdt_arraysim.Trajectories.run_single ~seed:t ~noise c in
    (* After the terminal measurement the state is collapsed; read the
       teleported qubit's population directly. *)
    if Sv.expectation_z sv 2 < 0.0 then incr ones
  done;
  let p = float_of_int !ones /. float_of_int trials in
  if Float.abs (p -. 0.5) > 0.1 then
    Alcotest.failf "trajectories p(q2=1) = %.3f, expected 0.5" p

let test_seed_reproducibility () =
  let c = Generators.teleportation () in
  List.iter
    (fun backend ->
      let a = sample backend ~seed:42 ~shots:400 c in
      let b = sample backend ~seed:42 ~shots:400 c in
      Alcotest.(check (list (pair int int))) "same seed, same counts" a b)
    [ "arrays"; "decision-diagrams"; "stabilizer" ]

(* ------------------------------------------------------------------ *)
(* Capabilities and routing                                            *)
(* ------------------------------------------------------------------ *)

let test_dynamic_capability_flags () =
  let dyn name = (Option.get (Registry.capabilities_of name)).Backend.dynamic in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " dynamic") true (dyn name))
    [ "arrays"; "decision-diagrams"; "stabilizer"; "auto" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " not dynamic") false (dyn name))
    [ "mps"; "tensor-network" ]

let test_typed_declines () =
  let c = Generators.teleportation () in
  (* tensor-network cannot sample at all, so probe it through an
     operation it does support to reach the dynamic-circuit guard. *)
  let probes =
    [
      ("mps", Qdt.Job.Sample { seed = 0; shots = 10 });
      ("tensor-network", Qdt.Job.Expectation_z { seed = 0; qubit = 0 });
    ]
  in
  List.iter
    (fun (name, probe) ->
      match Result.map ignore (Backend.run_once (get name) c probe) with
      | Ok () -> Alcotest.failf "%s must decline dynamic circuits" name
      | Error e ->
          Alcotest.(check string) "error names backend" name e.Backend.backend;
          Alcotest.(check bool) "reason mentions classical control" true
            (contains e.Backend.reason "classically-controlled"))
    probes

let test_auto_routes_dynamic () =
  let counts = sample "auto" ~shots:500 (Generators.teleportation ()) in
  Alcotest.(check int) "auto keeps all shots" 500 (shots_of counts);
  (* T-heavy dynamic circuit: auto must avoid MPS/TN and still succeed. *)
  let counts = sample "auto" ~shots:500 (Generators.repeat_until_success ()) in
  Alcotest.(check int) "auto handles non-Clifford dynamic" 500 (shots_of counts)

let () =
  Alcotest.run "dynamic"
    [
      ( "ir",
        [
          Alcotest.test_case "construction validation" `Quick test_validation;
          Alcotest.test_case "predicates" `Quick test_ir_predicates;
          Alcotest.test_case "shot plan" `Quick test_shot_plan;
          Alcotest.test_case "draw guard marker" `Quick test_draw_marker;
        ] );
      ( "qasm",
        [
          Alcotest.test_case "if parse" `Quick test_qasm_if_parse;
          Alcotest.test_case "single = rejected" `Quick
            test_qasm_single_equals_rejected;
          Alcotest.test_case "workload round-trips" `Quick
            test_qasm_roundtrip_workloads;
          QCheck_alcotest.to_alcotest qasm_roundtrip_prop;
        ] );
      ( "execution",
        [
          Alcotest.test_case "static RNG stream" `Quick test_static_rng_stream;
          Alcotest.test_case "teleportation backends" `Quick
            test_teleportation_backends;
          Alcotest.test_case "teleportation agreement" `Quick
            test_teleportation_agreement;
          Alcotest.test_case "teleportation theta prep" `Quick
            test_teleportation_theta_prep;
          Alcotest.test_case "repeat-until-success" `Quick
            test_repeat_until_success;
          Alcotest.test_case "repetition code" `Quick test_repetition_code;
          Alcotest.test_case "trajectories dynamic" `Quick
            test_trajectories_dynamic;
          Alcotest.test_case "seed reproducibility" `Quick
            test_seed_reproducibility;
        ] );
      ( "capabilities",
        [
          Alcotest.test_case "dynamic flags" `Quick test_dynamic_capability_flags;
          Alcotest.test_case "typed declines" `Quick test_typed_declines;
          Alcotest.test_case "auto routes dynamic" `Quick test_auto_routes_dynamic;
        ] );
    ]
