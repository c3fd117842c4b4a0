(* Qdt_par contract tests: multi-domain vs single-domain amplitude
   agreement on circuits straddling the serial cutoff, job-count-invariant
   seeded shot/trajectory results, pool reuse/resize/restart, and
   exception propagation out of worker domains. *)

open Qdt_circuit
module Cx = Qdt_linalg.Cx
module Sv = Qdt_arraysim.Statevector
module Traj = Qdt_arraysim.Trajectories

(* ------------------------------------------------------------------ *)
(* Amplitude agreement across job counts                               *)
(* ------------------------------------------------------------------ *)

(* The default chunk is 2^14 indices, so 14 qubits is the largest state
   that always runs serially: 6..14q exercise the cutoff's serial side at
   any job count, 15..16q split into 2 and 4 chunks. *)
let agreement_workloads =
  List.map
    (fun n -> (Printf.sprintf "random%d" n, Generators.random_circuit ~seed:(60 + n) ~depth:3 n))
    [ 6; 10; 14; 15; 16 ]

let amplitudes ~jobs c =
  Qdt_par.set_jobs jobs;
  let sv = Sv.run_unitary c in
  Array.init (1 lsl (Circuit.num_qubits c)) (Sv.amplitude sv)

let test_amplitude_agreement () =
  List.iter
    (fun (name, c) ->
      let serial = amplitudes ~jobs:1 c in
      let par2 = amplitudes ~jobs:2 c in
      let par4 = amplitudes ~jobs:4 c in
      Array.iteri
        (fun k a ->
          if Cx.norm (Cx.sub a par2.(k)) > 1e-12 then
            Alcotest.failf "%s: amplitude %d: jobs=2 differs from serial by > 1e-12" name k;
          (* jobs >= 2 share chunk boundaries, so they agree exactly. *)
          if par2.(k) <> par4.(k) then
            Alcotest.failf "%s: amplitude %d: jobs=2 and jobs=4 not bit-identical" name k)
        serial)
    agreement_workloads

let test_reductions_agree () =
  let c = Generators.random_circuit ~seed:91 ~depth:3 16 in
  let at jobs f =
    Qdt_par.set_jobs jobs;
    f (Sv.run_unitary c)
  in
  List.iter
    (fun (what, f) ->
      let serial = at 1 f and par2 = at 2 f and par4 = at 4 f in
      Alcotest.(check (float 1e-12)) (what ^ ": jobs=2 vs serial") serial par2;
      Alcotest.(check bool) (what ^ ": jobs=2 == jobs=4") true (par2 = par4))
    [
      ("norm", Sv.norm);
      ("kraus_weight", fun sv -> Sv.kraus_weight sv Qdt_linalg.Gates.h ~target:3);
      ("expectation_z", fun sv -> Sv.expectation_z sv 5);
    ]

(* ------------------------------------------------------------------ *)
(* Seeded shots and trajectories: invariant in the job count           *)
(* ------------------------------------------------------------------ *)

let counts ~jobs ~backend c =
  Qdt_par.set_jobs jobs;
  let engine = Option.get (Qdt.Registry.find_session backend) in
  match Qdt.Backend.run_once engine c (Qdt.Job.Sample { seed = 11; shots = 400 }) with
  | Ok (Qdt.Job.Counts counts, _) -> counts
  | _ -> Alcotest.failf "%s: no counts" backend

let total = List.fold_left (fun acc (_, n) -> acc + n) 0

let test_dynamic_counts_arrays () =
  let teleport = Generators.teleportation () in
  let c1 = counts ~jobs:1 ~backend:"arrays" teleport in
  let c1' = counts ~jobs:1 ~backend:"arrays" teleport in
  Alcotest.(check (list (pair int int))) "jobs=1 reproducible" c1 c1';
  let c2 = counts ~jobs:2 ~backend:"arrays" teleport in
  let c4 = counts ~jobs:4 ~backend:"arrays" teleport in
  Alcotest.(check (list (pair int int))) "jobs=2 == jobs=4" c2 c4;
  Alcotest.(check int) "same shot total" (total c1) (total c2)

let test_dynamic_counts_stabilizer () =
  let repetition = Generators.repetition_code ~cycles:2 () in
  let c1 = counts ~jobs:1 ~backend:"stabilizer" repetition in
  let c1' = counts ~jobs:1 ~backend:"stabilizer" repetition in
  Alcotest.(check (list (pair int int))) "jobs=1 reproducible" c1 c1';
  let c2 = counts ~jobs:2 ~backend:"stabilizer" repetition in
  let c4 = counts ~jobs:4 ~backend:"stabilizer" repetition in
  Alcotest.(check (list (pair int int))) "jobs=2 == jobs=4" c2 c4;
  Alcotest.(check int) "same shot total" (total c1) (total c2)

let test_trajectories_jobs_invariant () =
  let c = Generators.ghz 6 in
  let noise = Traj.depolarizing 0.02 in
  let avg jobs =
    Qdt_par.set_jobs jobs;
    Traj.average_probabilities ~seed:7 ~noise ~trajectories:64 c
  in
  let a1 = avg 1 and a2 = avg 2 and a4 = avg 4 in
  Alcotest.(check bool) "jobs=2 == jobs=4 (bit-identical)" true (a2 = a4);
  Array.iteri
    (fun k p ->
      if Float.abs (p -. a2.(k)) > 1e-12 then
        Alcotest.failf "probability %d: jobs=2 differs from serial by > 1e-12" k)
    a1;
  let fid jobs =
    Qdt_par.set_jobs jobs;
    Traj.average_fidelity ~seed:7 ~noise ~trajectories:64 c
  in
  let f1 = fid 1 and f2 = fid 2 and f4 = fid 4 in
  Alcotest.(check bool) "fidelity: jobs=2 == jobs=4" true (f2 = f4);
  Alcotest.(check (float 1e-12)) "fidelity: jobs=2 vs serial" f1 f2

(* ------------------------------------------------------------------ *)
(* Pool lifecycle and primitives                                       *)
(* ------------------------------------------------------------------ *)

let test_pool_reuse_and_restart () =
  Qdt_par.shutdown ();
  Alcotest.(check int) "down after shutdown" 0 (Qdt_par.spawned_domains ());
  Qdt_par.set_jobs 4;
  Qdt_par.parallel_for ~chunk:1 0 64 (fun _ _ -> ());
  Alcotest.(check int) "jobs=4 spawns 3 workers" 3 (Qdt_par.spawned_domains ());
  Qdt_par.parallel_for ~chunk:1 0 64 (fun _ _ -> ());
  Alcotest.(check int) "same size reuses the pool" 3 (Qdt_par.spawned_domains ());
  Qdt_par.set_jobs 2;
  Qdt_par.parallel_for ~chunk:1 0 64 (fun _ _ -> ());
  Alcotest.(check int) "resize drains and respawns" 1 (Qdt_par.spawned_domains ());
  Qdt_par.shutdown ();
  Alcotest.(check int) "explicit shutdown joins all" 0 (Qdt_par.spawned_domains ());
  Qdt_par.parallel_for ~chunk:1 0 64 (fun _ _ -> ());
  Alcotest.(check int) "next region restarts the pool" 1 (Qdt_par.spawned_domains ())

let test_parallel_for_covers_range () =
  Qdt_par.set_jobs 4;
  let n = 10_000 in
  let hits = Array.make n 0 in
  Qdt_par.parallel_for ~chunk:64 0 n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Array.iteri
    (fun i h -> if h <> 1 then Alcotest.failf "index %d visited %d times" i h)
    hits

let test_map_matches_serial () =
  Qdt_par.set_jobs 4;
  let arr = Array.init 999 (fun i -> i - 500) in
  let f x = (x * x) + (3 * x) in
  Alcotest.(check (array int)) "map == Array.map" (Array.map f arr) (Qdt_par.map f arr)

let test_exception_propagation () =
  Qdt_par.set_jobs 4;
  let raised =
    try
      Qdt_par.parallel_for ~chunk:8 0 1024 (fun lo _hi ->
          if lo >= 512 then failwith "boom");
      false
    with Failure msg when msg = "boom" -> true
  in
  Alcotest.(check bool) "worker exception re-raised on caller" true raised;
  (* The pool must survive the failed region. *)
  let arr = Array.init 100 Fun.id in
  Alcotest.(check (array int)) "pool usable after exception"
    (Array.map (fun x -> 2 * x) arr)
    (Qdt_par.map (fun x -> 2 * x) arr)

let test_nested_regions_run_serially () =
  Qdt_par.set_jobs 4;
  let inner_ran = Atomic.make 0 in
  Qdt_par.parallel_for ~chunk:1 0 8 (fun _ _ ->
      (* Inner region while the outer is active: must run inline, not
         deadlock on the busy pool. *)
      Qdt_par.parallel_for ~chunk:1 0 4 (fun lo hi ->
          ignore (Atomic.fetch_and_add inner_ran (hi - lo))));
  Alcotest.(check int) "inner iterations all ran" 32 (Atomic.get inner_ran)

(* A gate kernel chunks its base indices, not the whole index range:
   at jobs 2 a 16-qubit pass splits into 4 pool chunks and a 15-qubit
   one into 2, whichever bits the gate and its controls hold, and a
   14-qubit pass runs inline. *)
let test_kernel_chunks () =
  let module M = Qdt_obs.Metrics in
  Qdt_par.set_jobs 2;
  let was = M.enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled was) @@ fun () ->
  let chunks () =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | M.Counter_v c when String.starts_with ~prefix:"qdt.par.chunks" name -> acc + c
        | _ -> acc)
      0 (M.snapshot ())
  in
  let u4 = Qdt_arraysim.Unitary_builder.unitary (Generators.random_circuit ~seed:5 ~depth:2 2) in
  List.iter
    (fun (n, want) ->
      let sv = Sv.create n in
      let top = n - 1 and next = n - 2 in
      List.iter
        (fun (what, apply) ->
          let before = chunks () in
          apply ();
          Alcotest.(check int) (Printf.sprintf "%d qubits, %s" n what) want (chunks () - before))
        [
          ( "H on the top bit",
            fun () -> Sv.apply_matrix sv Qdt_linalg.Gates.h ~controls:[] ~target:top );
          ( "CX, top control",
            fun () -> Sv.apply_matrix sv Qdt_linalg.Gates.x ~controls:[ top ] ~target:0 );
          ("4x4 on the top two", fun () -> Sv.apply_matrix2 sv u4 ~controls:[] ~q0:next ~q1:top);
          ( "controlled swap",
            fun () -> Sv.apply_swap sv ~controls:[ 3 ] next top );
        ])
    [ (14, 0); (15, 2); (16, 4) ]

(* ------------------------------------------------------------------ *)
(* Busy cores: [occupy]                                                *)
(* ------------------------------------------------------------------ *)

(* Runs [f] on two fresh domains, each inside [occupy], and returns
   once both are done; neither starts [f] before both are inside. *)
let two_occupied f =
  let inside = Atomic.make 0 in
  let arrive_and_wait k =
    Atomic.incr inside;
    while Atomic.get inside < k do
      Domain.cpu_relax ()
    done
  in
  let job () =
    Qdt_par.occupy (fun () ->
        arrive_and_wait 2;
        Fun.protect ~finally:(fun () -> arrive_and_wait 4) f)
  in
  let a = Domain.spawn job and b = Domain.spawn job in
  (Domain.join a, Domain.join b)

(* With the pool down, two occupied regions must neither start it nor
   run a chunk on a worker slot; one occupied region still takes it. *)
let test_occupy_keeps_chunks_on_caller () =
  Qdt_par.set_jobs 2;
  Qdt_par.shutdown ();
  let on_worker = Atomic.make 0 in
  let region () =
    let hits = Array.make 256 0 in
    Qdt_par.parallel_for ~chunk:1 0 256 (fun lo hi ->
        if Qdt_par.domain_slot () <> 0 then Atomic.incr on_worker;
        for i = lo to hi - 1 do
          hits.(i) <- hits.(i) + 1
        done);
    Array.for_all (( = ) 1) hits
  in
  let covered_a, covered_b = two_occupied region in
  Alcotest.(check bool) "every index once" true (covered_a && covered_b);
  Alcotest.(check int) "no chunk on a worker slot" 0 (Atomic.get on_worker);
  Alcotest.(check int) "pool never started" 0 (Qdt_par.spawned_domains ());
  ignore (Qdt_par.occupy region);
  Alcotest.(check int) "a lone job takes the pool" 1 (Qdt_par.spawned_domains ())

let test_occupy_releases_on_raise () =
  Qdt_par.set_jobs 2;
  (match Qdt_par.occupy (fun () -> failwith "job failed") with
  | () -> Alcotest.fail "occupy swallowed the exception"
  | exception Failure _ -> ());
  (* Were the failed job still counted, this lone job would be the
     second occupant and stay off the pool. *)
  Qdt_par.shutdown ();
  Qdt_par.occupy (fun () -> Qdt_par.parallel_for ~chunk:1 0 64 (fun _ _ -> ()));
  Alcotest.(check int) "a lone job takes the pool" 1 (Qdt_par.spawned_domains ())

(* A reduction folds one partial per chunk whether its chunks run on
   the pool, on the caller inside another region, or on the caller of
   one of two occupied jobs: the three give the same bits. *)
let test_reductions_same_chunks () =
  Qdt_par.set_jobs 2;
  let sv = Sv.run_unitary (Generators.random_circuit ~seed:93 ~depth:3 16) in
  let reductions () =
    List.concat_map
      (fun q -> [ Sv.expectation_z sv q; Sv.prob_of_bit sv q 1 ])
      (List.init 16 Fun.id)
    @ [ Sv.norm sv ]
  in
  let bits = List.map Int64.bits_of_float in
  let top = bits (reductions ()) in
  let nested = ref [] in
  Qdt_par.parallel_for ~chunk:1 0 2 (fun lo _ -> if lo = 0 then nested := reductions ());
  Alcotest.(check (list int64)) "nested = top level" top (bits !nested);
  let a, b = two_occupied reductions in
  Alcotest.(check (list int64)) "occupied = top level" top (bits a);
  Alcotest.(check (list int64)) "both occupied jobs" top (bits b)

let () =
  (* Leave a clean slate whatever order alcotest ran things in. *)
  at_exit (fun () -> Qdt_par.set_jobs 1);
  Alcotest.run "par"
    [
      ( "agreement",
        [
          Alcotest.test_case "amplitudes across job counts" `Quick test_amplitude_agreement;
          Alcotest.test_case "reductions across job counts" `Quick test_reductions_agree;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "dynamic counts (arrays)" `Quick test_dynamic_counts_arrays;
          Alcotest.test_case "dynamic counts (stabilizer)" `Quick test_dynamic_counts_stabilizer;
          Alcotest.test_case "trajectory averages" `Quick test_trajectories_jobs_invariant;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse, resize, restart" `Quick test_pool_reuse_and_restart;
          Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers_range;
          Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested regions serialize" `Quick test_nested_regions_run_serially;
          Alcotest.test_case "gate kernels chunk their base indices" `Quick test_kernel_chunks;
        ] );
      ( "occupy",
        [
          Alcotest.test_case "two jobs keep chunks on their callers" `Quick
            test_occupy_keeps_chunks_on_caller;
          Alcotest.test_case "count released on raise" `Quick test_occupy_releases_on_raise;
          Alcotest.test_case "reductions fold the same chunks" `Quick test_reductions_same_chunks;
        ] );
    ]
