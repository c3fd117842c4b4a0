(* Run-report artifacts (ISSUE 8): the Report bracket must produce one
   self-contained JSON value that survives a round-trip through the
   in-tree parser, peaks must behave as per-run running maxima, and
   the reset-semantics contract (everything back to zero after the
   bracket closes) must hold — including the parallel pool's domain
   gauge after [shutdown]. *)

module Metrics = Qdt_obs.Metrics
module Report = Qdt_obs.Report
module Json = Qdt_obs.Json

(* Scrub observability state around each test so order does not matter. *)
let isolated f () =
  Metrics.reset ();
  let m = Metrics.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled m;
      Metrics.reset ())
    f

(* The current value of the registered peak [name]. *)
let peak_value name =
  match List.assoc_opt name (Metrics.peaks ()) with
  | Some v -> v
  | None -> Alcotest.failf "peak %s is not registered" name

let parse_ok ~what s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" what e

let number ~what j name =
  match Option.bind (Json.member name j) Json.to_number with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing numeric field %S" what name

(* ------------------------------------------------------------------ *)
(* Peaks (the report's watermarks)                                     *)
(* ------------------------------------------------------------------ *)

let test_watermark_monotone =
  isolated @@ fun () ->
  Metrics.set_enabled true;
  let p = Metrics.peak "test.peak" in
  Metrics.raise_to p 3.0;
  Metrics.raise_to p 1.0;
  Alcotest.(check (float 0.0)) "lower observation ignored" 3.0 (peak_value "test.peak");
  Metrics.raise_to_int p 7;
  Alcotest.(check (float 0.0)) "raised to new max" 7.0 (peak_value "test.peak");
  Alcotest.(check bool) "a gauge in the snapshot" true
    (List.assoc_opt "test.peak" (Metrics.snapshot ()) = Some (Metrics.Gauge_v 7.0));
  Metrics.reset_peaks ();
  Alcotest.(check (float 0.0)) "zero after reset" 0.0 (peak_value "test.peak");
  Metrics.set_enabled false;
  Metrics.raise_to p 9.0;
  Alcotest.(check (float 0.0)) "disabled observation dropped" 0.0 (peak_value "test.peak")

(* Concurrent CAS-max: the final peak is the global max, never a lost
   update from a racing lower value. *)
let test_watermark_domains =
  isolated @@ fun () ->
  Metrics.set_enabled true;
  let p = Metrics.peak "test.peak.par" in
  let worker base () =
    for i = 1 to 10_000 do
      Metrics.raise_to_int p (base + i)
    done
  in
  let d1 = Domain.spawn (worker 0) and d2 = Domain.spawn (worker 5_000)
  and d3 = Domain.spawn (worker 1_000) in
  worker 2_500 ();
  Domain.join d1;
  Domain.join d2;
  Domain.join d3;
  Alcotest.(check (float 0.0)) "global max" 15_000.0 (peak_value "test.peak.par")

(* [reset_peaks] zeroes peaks and nothing else. *)
let test_reset_peaks_only =
  isolated @@ fun () ->
  Metrics.set_enabled true;
  let c = Metrics.counter "test.reset_peaks.count"
  and g = Metrics.gauge "test.reset_peaks.level"
  and p = Metrics.peak "test.reset_peaks.peak" in
  Metrics.add c 3;
  Metrics.set g 2.5;
  Metrics.raise_to p 4.0;
  Metrics.reset_peaks ();
  let s = Metrics.snapshot () in
  Alcotest.(check bool) "counter untouched" true
    (List.assoc_opt "test.reset_peaks.count" s = Some (Metrics.Counter_v 3));
  Alcotest.(check bool) "gauge untouched" true
    (List.assoc_opt "test.reset_peaks.level" s = Some (Metrics.Gauge_v 2.5));
  Alcotest.(check (float 0.0)) "peak zeroed" 0.0 (peak_value "test.reset_peaks.peak");
  Alcotest.(check bool) "only peaks listed" true
    (List.for_all
       (fun (name, _) -> name <> "test.reset_peaks.count" && name <> "test.reset_peaks.level")
       (Metrics.peaks ()))

(* One name is one instrument: a gauge and a peak cannot share it. *)
let test_gauge_peak_clash =
  isolated @@ fun () ->
  let clash what f =
    match f () with
    | _ -> Alcotest.failf "%s: registered one name twice" what
    | exception Invalid_argument _ -> ()
  in
  ignore (Metrics.gauge "test.clash.a");
  clash "peak after gauge" (fun () -> ignore (Metrics.peak "test.clash.a"));
  ignore (Metrics.peak "test.clash.b");
  clash "gauge after peak" (fun () -> ignore (Metrics.gauge "test.clash.b"));
  Metrics.remove "test.clash.a";
  Metrics.remove "test.clash.b"

(* ------------------------------------------------------------------ *)
(* Report bracket                                                      *)
(* ------------------------------------------------------------------ *)

let test_report_roundtrip =
  isolated @@ fun () ->
  let t = Report.start () in
  (* Work scoped to the run: a labeled counter and a watermark peak. *)
  Metrics.incr (Metrics.counter_with ~labels:[ ("backend", "dd") ] "test.report.runs");
  Metrics.raise_to_int (Metrics.peak "test.report.peak") 42;
  Report.add_section t ~name:"circuit" ~json:{|{"qubits": 2, "gates": 3}|};
  let json = Report.finish t in
  Alcotest.(check string) "finish is idempotent" json (Report.finish t);
  let j = parse_ok ~what:"report" json in
  (match Option.bind (Json.member "schema" j) Json.to_string with
  | Some s -> Alcotest.(check string) "schema" Report.schema s
  | None -> Alcotest.fail "report lacks schema field");
  Alcotest.(check bool) "wall_s >= 0" true (number ~what:"report" j "wall_s" >= 0.0);
  (match Json.member "circuit" j with
  | Some c ->
      Alcotest.(check (float 0.0)) "section embedded verbatim" 2.0
        (number ~what:"circuit section" c "qubits")
  | None -> Alcotest.fail "caller section missing");
  (match Json.member "watermarks" j with
  | Some wm ->
      Alcotest.(check (float 0.0)) "watermark peak recorded" 42.0
        (number ~what:"watermarks" wm "test.report.peak")
  | None -> Alcotest.fail "watermarks section missing");
  (match Json.member "metrics" j with
  | Some m ->
      Alcotest.(check (float 0.0)) "run-scoped metrics diff" 1.0
        (number ~what:"metrics" m {|test.report.runs{backend="dd"}|})
  | None -> Alcotest.fail "metrics section missing");
  (* Every number once: no key in both sections. *)
  (match (Json.member "metrics" j, Json.member "watermarks" j) with
  | Some (Json.Object m), Some (Json.Object w) ->
      List.iter
        (fun (name, _) ->
          if List.mem_assoc name m then Alcotest.failf "%s is in both sections" name)
        w
  | _ -> Alcotest.fail "metrics or watermarks is not an object");
  (* Reset-semantics contract: the bracket leaves no residue. *)
  Alcotest.(check (float 0.0)) "watermarks zero after finish" 0.0
    (peak_value "test.report.peak");
  (* And the artifact renders without raising. *)
  Alcotest.(check bool) "render is non-empty" true
    (String.length (Report.render json) > 0)

(* [dd.peak_live_nodes] means one thing: a cold DD job's report peak is
   the value the job reports under that name (the unique-table peak). *)
let test_dd_peak_matches_job =
  isolated @@ fun () ->
  let c =
    Qdt_circuit.Generators.random_clifford_t ~seed:0 ~gates:70 ~t_fraction:0.25 7
  in
  let engine =
    match Qdt.Registry.find_session "decision-diagrams" with
    | Some e -> e
    | None -> Alcotest.fail "decision-diagrams engine not registered"
  in
  let t = Report.start () in
  let stats =
    match Qdt.Backend.run_once engine c (Qdt.Job.Sample { seed = 0; shots = 10 }) with
    | Ok (_, stats) -> stats
    | Error e -> Alcotest.fail (Qdt.Backend.error_to_string e)
  in
  let j = parse_ok ~what:"report" (Report.finish t) in
  let job_peak =
    match List.assoc_opt "dd.peak_live_nodes" stats.Qdt.Backend.values with
    | Some v -> v
    | None -> Alcotest.fail "job stats lack dd.peak_live_nodes"
  in
  match Json.member "watermarks" j with
  | Some wm ->
      Alcotest.(check (float 0.0)) "report peak = job value" job_peak
        (number ~what:"watermarks" wm "dd.peak_live_nodes")
  | None -> Alcotest.fail "watermarks section missing"

let test_report_crash =
  isolated @@ fun () ->
  let t = Report.start () in
  Report.add_section t ~name:"invocation" ~json:{|{"backend": "auto"}|};
  let json = Report.crash t ~error:"boom \"quoted\"" ~backtrace:"frame 0\nframe 1" in
  let j = parse_ok ~what:"crash report" json in
  match Json.member "error" j with
  | None -> Alcotest.fail "crash report lacks error section"
  | Some e ->
      (match Option.bind (Json.member "message" e) Json.to_string with
      | Some msg -> Alcotest.(check string) "message survives escaping" "boom \"quoted\"" msg
      | None -> Alcotest.fail "error section lacks message");
      Alcotest.(check (float 0.0)) "watermarks zero after crash" 0.0
        (peak_value "test.report.peak")

(* ------------------------------------------------------------------ *)
(* Snapshots and atomic writes (ISSUE 10)                              *)
(* ------------------------------------------------------------------ *)

(* [snapshot] must yield a complete artifact without closing the
   bracket: the switch stays on, peaks keep accumulating, and the
   eventual [finish] sees everything since [start]. *)
let test_report_snapshot =
  isolated @@ fun () ->
  let t = Report.start () in
  let p = Metrics.peak "test.snapshot.peak" in
  Metrics.raise_to p 5.0;
  let s1 = Report.snapshot t in
  let j1 = parse_ok ~what:"first snapshot" s1 in
  (match Json.member "watermarks" j1 with
  | Some wm ->
      Alcotest.(check (float 0.0)) "peak in snapshot" 5.0
        (number ~what:"watermarks" wm "test.snapshot.peak")
  | None -> Alcotest.fail "watermarks section missing");
  Alcotest.(check bool) "bracket still live" true (Metrics.enabled ());
  Metrics.raise_to p 9.0;
  let s2 = Report.snapshot t in
  let j2 = parse_ok ~what:"second snapshot" s2 in
  (match Json.member "watermarks" j2 with
  | Some wm ->
      Alcotest.(check (float 0.0)) "later peak visible" 9.0
        (number ~what:"watermarks" wm "test.snapshot.peak")
  | None -> Alcotest.fail "watermarks section missing");
  let sealed = Report.finish t in
  Alcotest.(check string) "snapshot after finish returns the sealed artifact"
    sealed (Report.snapshot t)

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* write-to-temp-then-rename: the final document lands whole and the
   temp file does not survive. *)
let test_write_file_atomic =
  isolated @@ fun () ->
  let t = Report.start () in
  let json = Report.finish t in
  let path = Filename.temp_file "qdt_report" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Report.write_file path json;
      Report.write_file path json;
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check string) "document written whole" (json ^ "\n")
        (read_file path);
      ignore (parse_ok ~what:"written report" (String.trim (read_file path))))

(* ------------------------------------------------------------------ *)
(* Pool shutdown resets its gauge (ISSUE 8 satellite 3)                *)
(* ------------------------------------------------------------------ *)

let test_domains_gauge_reset =
  isolated @@ fun () ->
  Metrics.set_enabled true;
  let saved = Qdt_par.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Qdt_par.set_jobs saved;
      Qdt_par.shutdown ())
    (fun () ->
      Qdt_par.set_jobs 2;
      let hit = Atomic.make 0 in
      Qdt_par.parallel_for ~chunk:1 0 8 (fun lo hi ->
          Atomic.fetch_and_add hit (hi - lo) |> ignore);
      Alcotest.(check int) "work ran" 8 (Atomic.get hit);
      let gauge () =
        match List.assoc_opt "qdt.par.domains" (Metrics.snapshot ()) with
        | Some (Metrics.Gauge_v v) -> v
        | _ -> Alcotest.fail "qdt.par.domains gauge missing"
      in
      Alcotest.(check (float 0.0)) "gauge counts pool while up" 2.0 (gauge ());
      Qdt_par.shutdown ();
      Alcotest.(check int) "no worker domains remain" 0 (Qdt_par.spawned_domains ());
      Alcotest.(check (float 0.0)) "gauge reads 0 after shutdown" 0.0 (gauge ()))

let () =
  Alcotest.run "qdt_report"
    [
      ( "watermark",
        [
          Alcotest.test_case "monotone + reset" `Quick test_watermark_monotone;
          Alcotest.test_case "concurrent max" `Quick test_watermark_domains;
          Alcotest.test_case "reset_peaks spares other instruments" `Quick
            test_reset_peaks_only;
          Alcotest.test_case "gauge/peak name clash" `Quick test_gauge_peak_clash;
        ] );
      ( "report",
        [
          Alcotest.test_case "round-trip" `Quick test_report_roundtrip;
          Alcotest.test_case "crash artifact" `Quick test_report_crash;
          Alcotest.test_case "dd peak = job stats" `Quick test_dd_peak_matches_job;
          Alcotest.test_case "live snapshot" `Quick test_report_snapshot;
          Alcotest.test_case "atomic write" `Quick test_write_file_atomic;
        ] );
      ( "par",
        [ Alcotest.test_case "domains gauge reset" `Quick test_domains_gauge_reset ] );
    ]
