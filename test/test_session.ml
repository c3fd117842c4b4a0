(* Tests for the session layer: warm-start cache behavior of the DD
   engine, per-job stats deltas, per-job values that stay equal to their
   serial runs while two domains run jobs, buffer-reuse bit-identity against cold
   sessions, close semantics, auto routing inside one session, and the
   registry's session table + name suggestions. *)

open Qdt_circuit
module Backend = Qdt.Backend
module Job = Qdt.Job
module Registry = Qdt.Registry
module Vec = Qdt_linalg.Vec

let get_session name =
  match Registry.find_session name with
  | Some m -> m
  | None -> Alcotest.failf "session engine %s not registered" name

let ok name = function
  | Ok (payload, stats) -> (payload, stats)
  | Error e -> Alcotest.failf "%s: %s" name (Backend.error_to_string e)

(* [dd_of name stats key] — the job's "dd.<key>" value. *)
let dd_of name (stats : Backend.stats) key =
  match List.assoc_opt ("dd." ^ key) stats.Backend.values with
  | Some v -> v
  | None -> Alcotest.failf "%s: dd stats missing %s" name key

let t_heavy = Generators.random_clifford_t ~seed:3 ~gates:120 ~t_fraction:0.3 6

(* ------------------------------------------------------------------ *)
(* Warm start: same-session identical jobs hit the compute cache       *)
(* ------------------------------------------------------------------ *)

let test_dd_warm_start () =
  let (module S : Backend.SESSION) = get_session "decision-diagrams" in
  let s = S.create () in
  let _, st1 = ok "job 1" (S.submit s t_heavy Job.Full_state) in
  let _, st2 = ok "job 2" (S.submit s t_heavy Job.Full_state) in
  S.close s;
  let d1 = dd_of "job 1" st1 and d2 = dd_of "job 2" st2 in
  (* Identical work against warm unique/compute tables: every node
     construction and every cached operation must hit. *)
  Alcotest.(check bool) "cold compute hits partial" true
    (d1 "compute_hit_rate" < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "warm compute hit rate rose (%.3f -> %.3f)"
       (d1 "compute_hit_rate") (d2 "compute_hit_rate"))
    true
    (d2 "compute_hit_rate" > d1 "compute_hit_rate");
  Alcotest.(check (float 1e-12)) "warm unique-table all hits" 1.0
    (d2 "unique_hit_rate");
  (* Job 1 builds each distinct gate once; job 2 builds none. *)
  Alcotest.(check bool) "cold gate hits partial" true
    (d1 "gate_hit_rate" > 0.0 && d1 "gate_hit_rate" < 1.0);
  Alcotest.(check (float 0.0)) "warm gate cache all hits" 1.0 (d2 "gate_hit_rate")

(* ------------------------------------------------------------------ *)
(* Per-job stats are deltas, not cumulative totals                     *)
(* ------------------------------------------------------------------ *)

let test_dd_stats_are_deltas () =
  let saved = !Qdt.Dd.Pkg.default_gc_threshold in
  Fun.protect
    ~finally:(fun () -> Qdt.Dd.Pkg.default_gc_threshold := saved)
    (fun () ->
      (* A tiny GC threshold forces collections inside every job; if the
         reported counters were cumulative, each job would report strictly
         more GC runs and unique lookups than the previous one. *)
      Qdt.Dd.Pkg.default_gc_threshold := 64;
      let (module S : Backend.SESSION) = get_session "decision-diagrams" in
      let s = S.create () in
      let c = Generators.random_clifford_t ~seed:9 ~gates:400 ~t_fraction:0.2 8 in
      let _, st1 = ok "job 1" (S.submit s c Job.Full_state) in
      let _, st2 = ok "job 2" (S.submit s c Job.Full_state) in
      S.close s;
      let d1 = dd_of "job 1" st1 and d2 = dd_of "job 2" st2 in
      Alcotest.(check bool) "job 1 collected" true (d1 "gc_runs" > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "gc runs per job, not cumulative (%.0f then %.0f)"
           (d1 "gc_runs") (d2 "gc_runs"))
        true
        (d2 "gc_runs" <= d1 "gc_runs"))

(* ------------------------------------------------------------------ *)
(* Per-job values stay true while other domains run jobs               *)
(* ------------------------------------------------------------------ *)

(* One lane is one session's job sequence; [run_lane] returns each job's
   stats record minus its wall time. *)
let run_lane (name, jobs) =
  let (module S : Backend.SESSION) = get_session name in
  let s = S.create () in
  let stats =
    List.map
      (fun (c, job) -> { (snd (ok name (S.submit s c job))) with Backend.wall_s = 0.0 })
      jobs
  in
  S.close s;
  stats

let test_values_under_concurrency () =
  let deep = Generators.random_clifford_t ~seed:9 ~gates:200 ~t_fraction:0.2 7 in
  let dd_lane =
    ( "decision-diagrams",
      List.concat_map
        (fun _ ->
          [
            (deep, Job.Full_state);
            (t_heavy, Job.Sample { seed = 4; shots = 64 });
            (deep, Job.Expectation_z { seed = 0; qubit = 2 });
          ])
        [ 1; 2; 3 ] )
  in
  let mps_lane =
    ( "mps",
      List.map
        (fun seed -> (Generators.qaoa_maxcut ~seed ~layers:2 8, Job.Expectation_z { seed; qubit = 0 }))
        [ 1; 2; 3; 4 ] )
  in
  let stabilizer_lane =
    ( "stabilizer",
      List.map
        (fun seed ->
          (Generators.random_clifford ~seed ~gates:200 40, Job.Sample { seed; shots = 128 }))
        [ 1; 2; 3; 4 ] )
  in
  let m = Qdt.Obs.Metrics.enabled () in
  Fun.protect
    ~finally:(fun () -> Qdt.Obs.Metrics.set_enabled m)
    (fun () ->
      Qdt.Obs.Metrics.set_enabled true;
      let serial = List.map run_lane [ dd_lane; mps_lane; dd_lane; stabilizer_lane ] in
      let on_domain lanes = Domain.spawn (fun () -> List.map run_lane lanes) in
      let a = on_domain [ dd_lane; mps_lane ] and b = on_domain [ dd_lane; stabilizer_lane ] in
      let concurrent = Domain.join a @ Domain.join b in
      List.iter2
        (fun (name, _) (serial, concurrent) ->
          List.iteri
            (fun i (s, c) ->
              if s <> c then
                Alcotest.failf "%s job %d: concurrent stats differ from serial:\n  %s\n  %s"
                  name i (Backend.stats_to_string s) (Backend.stats_to_string c))
            (List.combine serial concurrent))
        [ dd_lane; mps_lane; dd_lane; stabilizer_lane ]
        (List.combine serial concurrent))

(* ------------------------------------------------------------------ *)
(* Buffer-reuse paths agree with cold sessions                         *)
(* ------------------------------------------------------------------ *)

let state_of name = function
  | Job.State v -> v
  | _ -> Alcotest.failf "%s: expected a state payload" name

let counts_of name = function
  | Job.Counts counts -> counts
  | _ -> Alcotest.failf "%s: expected a counts payload" name

let test_arrays_buffer_reuse () =
  let (module S : Backend.SESSION) = get_session "arrays" in
  let a = Generators.qft 6 and b = Generators.w_state 6 in
  let s = S.create () in
  (* Prime the session buffer with a different state, then check the
     reused (reset) buffer reproduces the cold result exactly. *)
  let _ = ok "prime" (S.submit s a Job.Full_state) in
  let warm, _ = ok "warm w(6)" (S.submit s b Job.Full_state) in
  let seeded = Circuit.(empty 3 ~clbits:1 |> h 0 |> measure ~qubit:0 ~clbit:0 |> cx 0 1 |> cx 1 2) in
  let warm_counts, _ = ok "warm sample" (S.submit s seeded (Job.Sample { seed = 11; shots = 64 })) in
  S.close s;
  let cold, _ = ok "cold w(6)" (Backend.run_once (module S) b Job.Full_state) in
  let cold = state_of "cold" cold in
  Alcotest.(check bool) "warm state = cold state (1e-12)" true
    (Vec.approx_equal ~eps:1e-12 (state_of "warm" warm) cold);
  let cold_counts, _ =
    ok "cold sample" (Backend.run_once (module S) seeded (Job.Sample { seed = 11; shots = 64 }))
  in
  let cold_counts = counts_of "cold sample" cold_counts in
  Alcotest.(check bool) "warm seeded counts = cold counts" true
    (counts_of "warm sample" warm_counts = cold_counts)

let test_stabilizer_tableau_reuse () =
  let (module S : Backend.SESSION) = get_session "stabilizer" in
  let c1 = Generators.random_clifford ~seed:5 ~gates:60 5 in
  let c2 = Generators.random_clifford ~seed:6 ~gates:60 5 in
  let s = S.create () in
  let _ = ok "prime" (S.submit s c1 (Job.Sample { seed = 1; shots = 32 })) in
  let warm, _ = ok "warm" (S.submit s c2 (Job.Sample { seed = 2; shots = 32 })) in
  S.close s;
  let cold, _ = ok "cold" (Backend.run_once (module S) c2 (Job.Sample { seed = 2; shots = 32 })) in
  let cold = counts_of "cold" cold in
  Alcotest.(check bool) "warm tableau counts = cold counts" true
    (counts_of "warm" warm = cold)

let test_dd_warm_matches_cold () =
  let (module S : Backend.SESSION) = get_session "decision-diagrams" in
  let s = S.create () in
  let _ = ok "prime" (S.submit s t_heavy Job.Full_state) in
  let warm, _ = ok "warm" (S.submit s t_heavy Job.Full_state) in
  S.close s;
  let cold, _ = ok "cold" (Backend.run_once (module S) t_heavy Job.Full_state) in
  let cold = state_of "cold" cold in
  Alcotest.(check bool) "warm DD state = cold state (1e-12)" true
    (Vec.approx_equal ~eps:1e-12 (state_of "warm" warm) cold)

(* ------------------------------------------------------------------ *)
(* Close semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_submit_after_close () =
  List.iter
    (fun name ->
      let (module S : Backend.SESSION) = get_session name in
      let s = S.create () in
      S.close s;
      S.close s (* idempotent *);
      match S.submit s Generators.bell Job.Full_state with
      | Ok _ -> Alcotest.failf "%s: submit after close succeeded" name
      | Error e ->
          Alcotest.(check string) (name ^ " reason") "session is closed"
            e.Backend.reason;
          Alcotest.(check string) (name ^ " backend") name e.Backend.backend)
    (Registry.names ())

(* ------------------------------------------------------------------ *)
(* Auto sessions route per job                                         *)
(* ------------------------------------------------------------------ *)

let test_auto_session_routes () =
  let (module S : Backend.SESSION) = get_session "auto" in
  let s = S.create () in
  let clifford = Generators.random_clifford ~seed:5 ~gates:80 6 in
  let _, st1 = ok "clifford" (S.submit s clifford (Job.Sample { seed = 1; shots = 50 })) in
  let _, st2 = ok "t-heavy" (S.submit s t_heavy Job.Full_state) in
  let _, st3 = ok "clifford again" (S.submit s clifford (Job.Sample { seed = 1; shots = 50 })) in
  S.close s;
  Alcotest.(check string) "clifford -> stabilizer" "stabilizer" st1.Backend.backend;
  Alcotest.(check string) "t-heavy -> dd" "decision-diagrams" st2.Backend.backend;
  Alcotest.(check string) "routes stay per job" "stabilizer" st3.Backend.backend;
  Alcotest.(check bool) "choice logged" true (st1.Backend.note <> None)

(* ------------------------------------------------------------------ *)
(* One-shot runs ride the session layer                                *)
(* ------------------------------------------------------------------ *)

let test_one_shot_shim_is_cold () =
  (* Two one-shot calls are two sessions: the second must not warm-start. *)
  let dd = get_session "decision-diagrams" in
  let d1 = dd_of "1" (snd (ok "1" (Backend.run_once dd t_heavy Job.Full_state))) in
  let d2 = dd_of "2" (snd (ok "2" (Backend.run_once dd t_heavy Job.Full_state))) in
  Alcotest.(check (float 1e-12)) "identical cold unique-hit rates"
    (d1 "unique_hit_rate") (d2 "unique_hit_rate");
  Alcotest.(check (float 1e-12)) "identical cold compute-hit rates"
    (d1 "compute_hit_rate") (d2 "compute_hit_rate")

(* ------------------------------------------------------------------ *)
(* Registry: session table and name suggestions                        *)
(* ------------------------------------------------------------------ *)

let test_registry_sessions_and_suggest () =
  List.iter
    (fun name ->
      if Registry.find_session name = None then
        Alcotest.failf "no session engine for %s" name)
    (Registry.names ());
  Alcotest.(check bool) "unknown session" true
    (Registry.find_session "qubit-frobnicator" = None);
  Alcotest.(check (option string)) "typo suggestion"
    (Some "decision-diagrams")
    (Registry.suggest "decison-digrams");
  Alcotest.(check (option string)) "case-insensitive" (Some "mps") (Registry.suggest "MPS");
  Alcotest.(check (option string)) "nothing close" None (Registry.suggest "qqqqqqqq")

let () =
  Alcotest.run "qdt_session"
    [
      ( "warm-start",
        [
          Alcotest.test_case "dd compute cache" `Quick test_dd_warm_start;
          Alcotest.test_case "per-job deltas" `Quick test_dd_stats_are_deltas;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "values match serial" `Quick test_values_under_concurrency ] );
      ( "bit-identity",
        [
          Alcotest.test_case "arrays buffer reuse" `Quick test_arrays_buffer_reuse;
          Alcotest.test_case "stabilizer tableau reuse" `Quick test_stabilizer_tableau_reuse;
          Alcotest.test_case "dd warm = cold" `Quick test_dd_warm_matches_cold;
          Alcotest.test_case "one-shot shims stay cold" `Quick test_one_shot_shim_is_cold;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "submit after close" `Quick test_submit_after_close;
          Alcotest.test_case "auto routes per job" `Quick test_auto_session_routes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "sessions + suggest" `Quick test_registry_sessions_and_suggest;
        ] );
    ]
