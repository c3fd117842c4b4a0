(* End-to-end tests for the serve layer (ISSUE 10): protocol round
   trips over a real socket, warm sessions, the telemetry plane
   (/metrics exposition validated with the in-tree parser, /report
   snapshots, the JSONL access log, serve.* spans), per-job timeouts
   that leave the server healthy, 429 backpressure, and the concurrent
   session-pool paths the worker domains exercise (parallel submits on
   one warm session, submit-after-close races) across every registered
   backend. *)

module Server = Qdt_serve.Server
module Client = Qdt_serve.Client
module Session_pool = Qdt_serve.Session_pool
module Metrics = Qdt_obs.Metrics
module Trace = Qdt_obs.Trace
module Prom = Qdt_prom.Prom
module Json = Qdt_obs.Json

let ghz n = Qdt_serve.Loadgen.default_qasm n

(* Every server test runs on an ephemeral port and always stops the
   server, so tests neither collide nor leak worker domains. *)
let with_server ?(cfg = Server.default_config) f =
  let t = Server.start { cfg with Server.port = 0 } in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t)

let with_client t f =
  let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port t) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let parse_ok ~what s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" what e

let member_string name j = Option.bind (Json.member name j) Json.to_string

let scrape_metrics c =
  let status, text = ok_or_fail "metrics" (Client.get c "/metrics") in
  Alcotest.(check int) "metrics status" 200 status;
  match Prom.parse text with
  | Ok fams -> fams
  | Error e -> Alcotest.failf "/metrics is not valid exposition: %s" e

let job_body ?(backend = "decision-diagrams") ?session ?delay_ms ?timeout_ms
    ~qasm job =
  let field k v = Printf.sprintf ", %s: %s" (Json.string k) v in
  Printf.sprintf "{\"qasm\": %s, \"backend\": %s, \"job\": %s%s%s%s}"
    (Json.string qasm) (Json.string backend) job
    (match session with Some s -> field "session" (Json.string s) | None -> "")
    (match delay_ms with Some d -> field "delay_ms" (Json.int d) | None -> "")
    (match timeout_ms with Some t -> field "timeout_ms" (Json.int t) | None -> "")

let sample_job = "{\"kind\": \"sample\", \"seed\": 1, \"shots\": 50}"

(* A test-only engine that holds a worker on demand: its [Amplitude k]
   job sleeps [k] ms, and the shared guard declines every other kind.
   It is registered like any engine, so the server resolves it by name
   and the all-backends session races below cover it too. *)
module Slow_engine = struct
  let name = "test-slow"

  let capabilities =
    {
      Qdt.Backend.full_state = false;
      amplitude = true;
      sample = false;
      expectation_z = false;
      supports_nonunitary = false;
      clifford_only = false;
      max_qubits = None;
      dynamic = false;
    }

  type t = { mutable closed : bool }

  let create () = { closed = false }
  let close t = t.closed <- true

  let submit t c job =
    match Qdt.Backend.admit ~closed:t.closed ~name ~caps:capabilities c job with
    | Error e -> Error e
    | Ok () ->
        let ms = match job with Qdt.Job.Amplitude k -> k | _ -> 0 in
        Unix.sleepf (float_of_int ms /. 1000.0);
        Ok
          ( Qdt.Job.Amplitude_of Qdt_linalg.Cx.zero,
            { Qdt.Backend.backend = name; wall_s = 0.0; note = None; values = [] } )
end

let () = Qdt.Registry.register (module Slow_engine)

(* A job that holds its worker for [ms] milliseconds ([ms] < 1024). *)
let slow_job_body ~ms ~timeout_ms =
  job_body ~backend:Slow_engine.name ~qasm:(ghz 10) ~timeout_ms
    (Printf.sprintf "{\"kind\": \"amplitude\", \"index\": %d}" ms)

(* ------------------------------------------------------------------ *)
(* Basic endpoints                                                     *)
(* ------------------------------------------------------------------ *)

let test_healthz () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let status, body = ok_or_fail "healthz" (Client.get c "/healthz") in
  Alcotest.(check int) "status" 200 status;
  let j = parse_ok ~what:"healthz" body in
  (match Json.member "ok" j with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "healthz did not report ok");
  (* Keep-alive: the same connection serves a second request. *)
  let status, _ = ok_or_fail "healthz again" (Client.get c "/healthz") in
  Alcotest.(check int) "second request on one connection" 200 status

(* A name that does not resolve is an error on both ends, never a
   silent bind to, or connection with, loopback. *)
let test_unresolvable_host () =
  let host = "no-such-host.invalid" in
  (match Server.start { Server.default_config with Server.host; port = 0 } with
  | t ->
      Server.stop t;
      Alcotest.fail "the server bound an unresolvable host"
  | exception Unix.Unix_error _ -> ());
  match Client.connect ~host ~port:Server.default_config.Server.port with
  | c ->
      Client.close c;
      Alcotest.fail "the client connected to an unresolvable host"
  | exception Unix.Unix_error _ -> ()

let test_job_and_warm_session () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let body = job_body ~qasm:(ghz 4) ~session:"alice" sample_job in
  let submit () =
    let status, resp =
      ok_or_fail "job" (Client.post c ~path:"/v1/jobs" ~body)
    in
    Alcotest.(check int) "status" 200 status;
    parse_ok ~what:"job response" resp
  in
  ignore (submit ());
  let j = submit () in
  (* Second submission on the same session hits warm DD caches: every
     node construction is answered by the unique table. *)
  let hit_rate =
    match
      Option.bind (Json.member "stats" j) (fun s ->
          Option.bind (Json.member "dd" s) (Json.member "unique_hit_rate"))
    with
    | Some (Json.Number v) -> v
    | _ -> Alcotest.fail "response lacks stats.dd.unique_hit_rate"
  in
  Alcotest.(check (float 0.0)) "warm unique-table hit rate" 1.0 hit_rate;
  (* Counts come back for a sample job. *)
  match Option.bind (Json.member "result" j) (member_string "kind") with
  | Some "counts" -> ()
  | _ -> Alcotest.fail "sample job did not return counts"

(* Runs are counted by backend and operation only: a session's own name
   is in the access log, and no metric label stands in for it. *)
let test_runs_labels () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  for _ = 1 to 2 do
    let body = job_body ~qasm:(ghz 4) ~session:"alice" sample_job in
    let status, _ = ok_or_fail "job" (Client.post c ~path:"/v1/jobs" ~body) in
    Alcotest.(check int) "status" 200 status
  done;
  match Prom.find "qdt_backend_runs" (scrape_metrics c) with
  | None -> Alcotest.fail "qdt_backend_runs missing from /metrics"
  | Some f ->
      List.iter
        (fun s ->
          Alcotest.(check (list string)) "qdt_backend_runs label keys"
            [ "backend"; "operation" ]
            (List.sort compare (List.map fst s.Prom.labels)))
        f.Prom.samples

let test_errors () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let post body = ok_or_fail "post" (Client.post c ~path:"/v1/jobs" ~body) in
  let error_type body =
    Option.bind (Json.member "error" (parse_ok ~what:"error" body))
      (member_string "type")
  in
  let status, body = post "not json at all" in
  Alcotest.(check int) "bad JSON" 400 status;
  Alcotest.(check (option string)) "typed" (Some "bad_request") (error_type body);
  let status, body = post (job_body ~backend:"dd9" ~qasm:(ghz 2) sample_job) in
  Alcotest.(check int) "unknown backend" 400 status;
  Alcotest.(check (option string)) "typed" (Some "unknown_backend")
    (error_type body);
  let status, body = post (job_body ~qasm:"qreg q[1;" sample_job) in
  Alcotest.(check int) "bad qasm" 400 status;
  Alcotest.(check (option string)) "typed" (Some "bad_request") (error_type body);
  (* Unsupported operation surfaces the backend's own typed error. *)
  let status, body =
    post
      (job_body ~backend:"tensor-network" ~qasm:(ghz 2)
         "{\"kind\": \"sample\", \"shots\": 5}")
  in
  Alcotest.(check int) "unsupported op" 422 status;
  Alcotest.(check (option string)) "typed" (Some "backend_error")
    (error_type body);
  let status, _ = ok_or_fail "404" (Client.get c "/nope") in
  Alcotest.(check int) "unknown path" 404 status;
  let status, _ =
    ok_or_fail "405" (Client.post c ~path:"/metrics" ~body:"")
  in
  Alcotest.(check int) "method mismatch" 405 status

(* An amplitude index outside the circuit is the shared guard's typed
   decline, not a payload: [ghz 5] has indices [0, 32). *)
let test_out_of_range_amplitude () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let status, body =
    ok_or_fail "post"
      (Client.post c ~path:"/v1/jobs"
         ~body:(job_body ~qasm:(ghz 5) "{\"kind\": \"amplitude\", \"index\": 32}"))
  in
  Alcotest.(check int) "out-of-range amplitude" 422 status;
  Alcotest.(check (option string)) "typed" (Some "backend_error")
    (Option.bind (Json.member "error" (parse_ok ~what:"error" body))
       (member_string "type"))

(* A shot count past the shared cap is declined before any shot runs,
   and the worker is free for the next job at once. *)
let test_shot_cap () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let post job = ok_or_fail "post" (Client.post c ~path:"/v1/jobs" ~body:(job_body ~qasm:(ghz 5) job)) in
  let t0 = Unix.gettimeofday () in
  let status, body = post "{\"kind\": \"sample\", \"seed\": 1, \"shots\": 1099511627776}" in
  Alcotest.(check int) "past the cap" 422 status;
  Alcotest.(check (option string)) "typed" (Some "backend_error")
    (Option.bind (Json.member "error" (parse_ok ~what:"error" body)) (member_string "type"));
  if Unix.gettimeofday () -. t0 > 5.0 then Alcotest.fail "the decline was not immediate";
  let status, _ = post sample_job in
  Alcotest.(check int) "next job" 200 status

let error_of body =
  match Json.member "error" (parse_ok ~what:"error" body) with
  | Some e -> (member_string "type" e, member_string "message" e)
  | None -> (None, None)

(* Integer fields take only numbers JSON holds exactly (|f| <= 2^53):
   past that [int_of_float] is unspecified, and a huge index, qubit or
   seed used to run as some other value. *)
let test_integer_fields () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let post job =
    ok_or_fail "post" (Client.post c ~path:"/v1/jobs" ~body:(job_body ~qasm:(ghz 3) job))
  in
  List.iter
    (fun (field, job) ->
      let status, body = post job in
      Alcotest.(check int) job 400 status;
      Alcotest.(check (pair (option string) (option string)))
        (job ^ ": typed")
        (Some "bad_request", Some (Printf.sprintf "field %S: expected an integer" field))
        (error_of body))
    [
      ("index", "{\"kind\": \"amplitude\", \"index\": 1e300}");
      ("index", "{\"kind\": \"amplitude\", \"index\": 9.3e18}");
      ("index", "{\"kind\": \"amplitude\", \"index\": 9007199254740994}");
      ("qubit", "{\"kind\": \"expectation_z\", \"qubit\": 1e300}");
      ("seed", "{\"kind\": \"sample\", \"seed\": 1e300, \"shots\": 10}");
      ("shots", "{\"kind\": \"sample\", \"seed\": 1, \"shots\": 1e19}");
    ];
  (* 2^53 itself decodes; the shared guard then declines the index. *)
  let status, _ = post "{\"kind\": \"amplitude\", \"index\": 9007199254740992}" in
  Alcotest.(check int) "2^53 reaches the guard" 422 status

(* A budget past one day is declined before it reaches the queue: the
   server waits on [Unix.select], which rejects waits of 2^31 s or more,
   and counts the budget in int nanoseconds.  Declines hold no
   descriptors. *)
let test_timeout_cap () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let post timeout_ms =
    ok_or_fail "post"
      (Client.post c ~path:"/v1/jobs" ~body:(job_body ~qasm:(ghz 3) ~timeout_ms sample_job))
  in
  List.iter
    (fun ms ->
      let status, body = post ms in
      Alcotest.(check int) (Printf.sprintf "timeout_ms %d" ms) 400 status;
      Alcotest.(check (option string)) "typed" (Some "bad_request") (fst (error_of body)))
    [ 3_000_000_000_000; 5_000_000_000_000 ];
  if Sys.file_exists "/proc/self/fd" then begin
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = open_fds () in
    for _ = 1 to 20 do
      ignore (post 3_000_000_000_000)
    done;
    Alcotest.(check int) "no descriptor leaked" before (open_fds ())
  end;
  let status, _ = post 86_400_000 in
  Alcotest.(check int) "one day is accepted" 200 status

(* A default budget or queue depth the server cannot honour is refused
   at start, before anything is bound: past one day [Unix.select] and the
   ns conversion fail as they do for a job's own budget, and a queue of
   depth 0 answers every job 429 while /healthz says ok. *)
let test_start_rejects_bad_config () =
  let port =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd") else 0
  in
  let before = open_fds () in
  let timeout ms = { Server.default_config with Server.default_timeout_ms = ms } in
  List.iter
    (fun (what, cfg) ->
      match Server.start { cfg with Server.port } with
      | t ->
          Server.stop t;
          Alcotest.failf "%s: the server started" what
      | exception Invalid_argument _ -> ())
    [
      ("timeout 0 ms", timeout 0);
      ("timeout 86400001 ms", timeout 86_400_001);
      ("timeout 3e12 ms", timeout 3_000_000_000_000);
      ("queue depth 0", { Server.default_config with Server.queue_depth = 0 });
    ];
  Alcotest.(check int) "no descriptor opened" before (open_fds ());
  (* Nothing holds the port: a fresh socket binds it. *)
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close s) (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)));
  with_server ~cfg:(timeout 86_400_000) @@ fun t ->
  with_client t @@ fun c ->
  let status, _ =
    ok_or_fail "job" (Client.post c ~path:"/v1/jobs" ~body:(job_body ~qasm:(ghz 3) sample_job))
  in
  Alcotest.(check int) "a one-day default still serves" 200 status

(* ------------------------------------------------------------------ *)
(* Telemetry plane                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_exposition () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let body = job_body ~qasm:(ghz 3) ~session:"m" sample_job in
  ignore (ok_or_fail "job" (Client.post c ~path:"/v1/jobs" ~body));
  (* OCaml 5 publishes heap sizes to [Gc.quick_stat] at minor
     collections; one here makes the heap watermark nonzero. *)
  Gc.minor ();
  let fams = scrape_metrics c in
  let family name =
    match Prom.find name fams with
    | Some f -> f
    | None -> Alcotest.failf "family %s missing from /metrics" name
  in
  Alcotest.(check string) "queue depth gauge present" "gauge"
    (family "qdt_serve_queue_depth").Prom.kind;
  Alcotest.(check string) "inflight gauge present" "gauge"
    (family "qdt_serve_inflight").Prom.kind;
  Alcotest.(check bool) "uptime gauge is positive" true
    (match (family "qdt_serve_uptime_s").Prom.samples with
    | [ s ] -> s.Prom.value > 0.0
    | _ -> false);
  Alcotest.(check bool) "request counters are nonzero" true
    (Prom.total (family "qdt_serve_requests") > 0.0);
  Alcotest.(check bool) "job ok counter is nonzero" true
    (List.exists
       (fun s ->
         s.Prom.labels = [ ("outcome", "ok") ] && s.Prom.value > 0.0)
       (family "qdt_serve_jobs").Prom.samples);
  let lat = family "qdt_serve_latency_ns" in
  Alcotest.(check string) "per-endpoint latency histogram" "histogram"
    lat.Prom.kind;
  Alcotest.(check bool) "latency histogram observed the jobs endpoint" true
    (List.exists
       (fun s ->
         s.Prom.metric = "qdt_serve_latency_ns_count"
         && List.mem ("endpoint", "jobs") s.Prom.labels
         && s.Prom.value > 0.0)
       lat.Prom.samples);
  (* Peaks are gauges under their own names (peak RSS via /proc where
     present). *)
  Alcotest.(check bool) "dd watermark exposed" true
    (Option.is_some (Prom.find "dd_peak_live_nodes" fams));
  Alcotest.(check bool) "heap watermark exposed" true
    (match Prom.find "heap_peak_heap_words" fams with
    | Some f -> Prom.total f > 0.0
    | None -> false);
  if Sys.file_exists "/proc/self/status" then
    Alcotest.(check bool) "peak RSS exposed" true
      (match Prom.find "proc_peak_rss_bytes" fams with
      | Some f -> Prom.total f > 0.0
      | None -> false)

let test_report_endpoint () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let body = job_body ~qasm:(ghz 3) sample_job in
  ignore (ok_or_fail "job" (Client.post c ~path:"/v1/jobs" ~body));
  let scrape what =
    let status, body = ok_or_fail what (Client.get c "/report") in
    Alcotest.(check int) (what ^ " status") 200 status;
    parse_ok ~what body
  in
  let r1 = scrape "first report" in
  (* A second scrape also succeeds: snapshots do not seal the bracket. *)
  let r2 = scrape "second report" in
  let schema j =
    match member_string "schema" j with
    | Some s -> s
    | None -> Alcotest.fail "report lacks schema"
  in
  Alcotest.(check string) "schema" (schema r1) (schema r2);
  (* A /metrics scrape copies nothing into the registry: the report
     still lists each number once. *)
  ignore (ok_or_fail "metrics" (Client.get c "/metrics"));
  let r3 = scrape "report after a metrics scrape" in
  let keys section =
    match Json.member section r3 with
    | Some (Json.Object fields) -> List.map fst fields
    | _ -> Alcotest.failf "report lacks a %s object" section
  in
  let metrics = keys "metrics" and watermarks = keys "watermarks" in
  List.iter
    (fun k ->
      if List.mem k metrics then Alcotest.failf "%s is in metrics and watermarks" k)
    watermarks;
  List.iter
    (fun k ->
      if String.starts_with ~prefix:"qdt.watermark." k then
        Alcotest.failf "mirrored key %s in the report" k)
    (metrics @ watermarks)

(* The load generator measures its own clients: it registers nothing in
   the process-wide registry an in-process server exports, leaves the
   metrics switch as it found it, and its percentiles are exact order
   statistics of the latencies it saw. *)
let test_loadgen_own_latencies () =
  with_server @@ fun t ->
  let enabled = Metrics.enabled () in
  let clients = 2 and jobs_per_client = 4 in
  let { Qdt_serve.Loadgen.ok; p50_ns; p99_ns; max_ns; _ } =
    Qdt_serve.Loadgen.run ~port:(Server.port t) ~qasm:(ghz 3) ~clients ~jobs_per_client ()
  in
  Alcotest.(check bool) "metrics switch untouched" enabled (Metrics.enabled ());
  Alcotest.(check int) "every job ok" (clients * jobs_per_client) ok;
  if not (0 < p50_ns && p50_ns <= p99_ns && p99_ns <= max_ns) then
    Alcotest.failf "percentiles out of order: p50 %d, p99 %d, max %d" p50_ns p99_ns max_ns;
  (* No series of any name that mentions the load generator. *)
  let mentions_loadgen s =
    let n = String.length "loadgen" in
    let rec at i = i + n <= String.length s && (String.sub s i n = "loadgen" || at (i + 1)) in
    at 0
  in
  List.iter
    (fun (k, _) -> if mentions_loadgen k then Alcotest.failf "key %s in the registry" k)
    (Metrics.snapshot ());
  with_client t @@ fun c ->
  List.iter
    (fun f ->
      if mentions_loadgen f.Prom.name then Alcotest.failf "family %s on /metrics" f.Prom.name)
    (scrape_metrics c)

let test_access_log_and_spans () =
  let log = Filename.temp_file "qdt_access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      Trace.configure ();
      Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Trace.set_enabled false;
          Trace.clear ())
        (fun () ->
          with_server
            ~cfg:{ Server.default_config with Server.access_log = Some log }
            (fun t ->
              with_client t @@ fun c ->
              let body = job_body ~qasm:(ghz 3) ~session:"s" sample_job in
              ignore (ok_or_fail "job" (Client.post c ~path:"/v1/jobs" ~body));
              ignore (ok_or_fail "healthz" (Client.get c "/healthz")));
          (* Spans: handler threads run on the enabling domain, so the
             request/queue-wait nesting lands in the ring. *)
          let names =
            List.map (fun (e : Trace.event) -> e.Trace.name) (Trace.events ())
          in
          List.iter
            (fun expected ->
              if not (List.mem expected names) then
                Alcotest.failf "span %s missing from trace" expected)
            [ "serve.request"; "serve.queue_wait"; "serve.run" ]);
      let ic = open_in log in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines =
        List.rev !lines |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per request" 2 (List.length lines);
      let job_line = parse_ok ~what:"access log line" (List.hd lines) in
      List.iter
        (fun field ->
          if Json.member field job_line = None then
            Alcotest.failf "access log line lacks %S" field)
        [ "ts_unix_ns"; "client"; "path"; "status"; "latency_ns"; "outcome";
          "backend"; "job"; "session"; "queue_wait_ns"; "run_ns" ];
      Alcotest.(check (list string)) "access log field order"
        [ "ts_unix_ns"; "client"; "method"; "path"; "status"; "latency_ns";
          "backend"; "job"; "session"; "outcome"; "queue_wait_ns"; "run_ns" ]
        (match job_line with Json.Object fields -> List.map fst fields | _ -> []))

(* ------------------------------------------------------------------ *)
(* Timeouts and backpressure                                           *)
(* ------------------------------------------------------------------ *)

let test_timeout_then_recovery () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let slow = slow_job_body ~ms:500 ~timeout_ms:60 in
  let status, body = ok_or_fail "slow job" (Client.post c ~path:"/v1/jobs" ~body:slow) in
  Alcotest.(check int) "timeout status" 504 status;
  (match
     Option.bind (Json.member "error" (parse_ok ~what:"timeout" body))
       (member_string "type")
   with
  | Some "timeout" -> ()
  | other ->
      Alcotest.failf "expected typed timeout, got %s"
        (Option.value ~default:"<none>" other));
  (* The worker survives the abandoned job: the same server answers the
     next request normally. *)
  let ok_job = job_body ~qasm:(ghz 3) sample_job in
  let status, _ = ok_or_fail "next job" (Client.post c ~path:"/v1/jobs" ~body:ok_job) in
  Alcotest.(check int) "server still serving" 200 status

let test_backpressure () =
  with_server
    ~cfg:{ Server.default_config with Server.workers = 1; queue_depth = 1 }
  @@ fun t ->
  (* Saturate: one job running (slow), one queued, the rest must be
     rejected with 429 + Retry-After. *)
  let port = Server.port t in
  let results = Array.make 5 (0, false) in
  let threads =
    List.init 5 (fun i ->
        Thread.create
          (fun () ->
            let c = Client.connect ~host:"127.0.0.1" ~port in
            let body = slow_job_body ~ms:300 ~timeout_ms:5000 in
            (match Client.request c ~meth:"POST" ~path:"/v1/jobs" ~body () with
            | Ok (status, headers, _) ->
                results.(i) <-
                  (status, List.mem_assoc "retry-after" headers)
            | Error _ -> results.(i) <- (-1, false));
            Client.close c)
          ())
  in
  List.iter Thread.join threads;
  let count s =
    Array.fold_left (fun n (st, _) -> if st = s then n + 1 else n) 0 results
  in
  Alcotest.(check bool) "some jobs completed" true (count 200 >= 1);
  Alcotest.(check bool) "overload rejected" true (count 429 >= 1);
  Array.iter
    (fun (st, ra) ->
      if st = 429 && not ra then Alcotest.fail "429 without Retry-After")
    results

(* [delay_ms] is not part of the protocol: like any unknown field it is
   ignored, so no client can park a worker by asking for a sleep. *)
let test_stray_delay_ignored () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let body = job_body ~qasm:(ghz 3) ~delay_ms:3000 ~timeout_ms:1000 sample_job in
  let status, _ = ok_or_fail "job" (Client.post c ~path:"/v1/jobs" ~body) in
  Alcotest.(check int) "delay_ms does not hold the worker" 200 status

let test_batch () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let good = job_body ~qasm:(ghz 2) ~session:"b" sample_job in
  let body = good ^ "\n" ^ "{\"broken\"\n" ^ good ^ "\n" in
  let status, resp = ok_or_fail "batch" (Client.post c ~path:"/v1/batch" ~body) in
  Alcotest.(check int) "status" 200 status;
  let lines =
    String.split_on_char '\n' resp |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one response line per job line" 3 (List.length lines);
  let ok_of line =
    match Json.member "ok" (parse_ok ~what:"batch line" line) with
    | Some (Json.Bool b) -> b
    | _ -> Alcotest.fail "batch line lacks ok"
  in
  (match List.map ok_of lines with
  | [ true; false; true ] -> ()
  | other ->
      Alcotest.failf "batch order broken: %s"
        (String.concat ","
           (List.map string_of_bool other)))

(* ------------------------------------------------------------------ *)
(* Session close over HTTP                                             *)
(* ------------------------------------------------------------------ *)

let test_session_close_endpoint () =
  with_server @@ fun t ->
  with_client t @@ fun c ->
  let body = job_body ~qasm:(ghz 2) ~session:"gone" sample_job in
  ignore (ok_or_fail "open" (Client.post c ~path:"/v1/jobs" ~body));
  let close () =
    ok_or_fail "close"
      (Client.post c ~path:"/v1/sessions/close"
         ~body:"{\"session\": \"gone\"}")
  in
  let _, resp = close () in
  (match Json.member "closed" (parse_ok ~what:"close" resp) with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "close did not report closed");
  (* Closing again is a no-op, and the name is reusable afterwards. *)
  let _, resp = close () in
  (match Json.member "closed" (parse_ok ~what:"re-close" resp) with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "second close should find nothing");
  let status, _ = ok_or_fail "reuse" (Client.post c ~path:"/v1/jobs" ~body) in
  Alcotest.(check int) "name reusable after close" 200 status

(* ------------------------------------------------------------------ *)
(* Concurrent session use (ISSUE 10 satellite 3)                       *)
(* ------------------------------------------------------------------ *)

let bell =
  Qdt_circuit.Qasm.of_string
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"

(* A job every backend can execute (capability-dependent). *)
let job_for name =
  match Qdt.Registry.capabilities_of name with
  | Some caps when caps.Qdt.Backend.sample ->
      Qdt.Job.Sample { seed = 7; shots = 20 }
  | _ -> Qdt.Job.Amplitude 0

(* Parallel submits against ONE warm session, per backend: the pool
   must serialise them onto the engine and every job must come back
   with a definite outcome (no crash, no lost submission). *)
let test_parallel_submits_one_session () =
  List.iter
    (fun name ->
      let pool = Session_pool.create ~max_sessions:8 in
      let engine = Option.get (Qdt.Registry.find_session name) in
      let job = job_for name in
      let errors = Atomic.make 0 and ok = Atomic.make 0 in
      let domains =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 5 do
                  match Session_pool.submit pool ~session:"shared" ~engine bell job with
                  | Ok (Ok _) -> Atomic.incr ok
                  | Ok (Error _) | Error _ -> Atomic.incr errors
                done))
      in
      List.iter Domain.join domains;
      Session_pool.close_all pool;
      Alcotest.(check int)
        (name ^ ": all submissions accounted for") 20
        (Atomic.get ok + Atomic.get errors);
      Alcotest.(check int) (name ^ ": no typed errors") 0 (Atomic.get errors))
    (Qdt.Registry.names ())

(* Submit-after-close races, per backend: close the session while other
   domains are mid-submit loop.  Every submit must return either a
   success or the typed session-closed/fresh-session outcome — never
   crash — and the server-side pattern (fresh engine under the same
   name after close) must keep working. *)
let test_submit_close_races () =
  List.iter
    (fun name ->
      let pool = Session_pool.create ~max_sessions:8 in
      let engine = Option.get (Qdt.Registry.find_session name) in
      let job = job_for name in
      let stop = Atomic.make false in
      let outcomes = Atomic.make 0 in
      let submitters =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                while not (Atomic.get stop) do
                  match Session_pool.submit pool ~session:"racy" ~engine bell job with
                  | Ok (Ok _) | Ok (Error _) -> Atomic.incr outcomes
                  | Error e ->
                      Alcotest.failf "%s: pool error %s" name
                        (Session_pool.error_message e)
                done))
      in
      (* Keep closing until real submissions have interleaved with the
         closes, so the race window is actually exercised. *)
      let spins = ref 0 in
      while Atomic.get outcomes < 10 && !spins < 200_000 do
        incr spins;
        ignore (Session_pool.close pool ~session:"racy");
        Domain.cpu_relax ()
      done;
      Atomic.set stop true;
      List.iter Domain.join submitters;
      Session_pool.close_all pool;
      Alcotest.(check bool)
        (name ^ ": submissions kept flowing through closes") true
        (Atomic.get outcomes > 0))
    (Qdt.Registry.names ())

let () =
  Alcotest.run "qdt_serve"
    [
      ( "endpoints",
        [
          Alcotest.test_case "healthz + keep-alive" `Quick test_healthz;
          Alcotest.test_case "job + warm session" `Quick
            test_job_and_warm_session;
          Alcotest.test_case "runs counted by backend and operation" `Quick
            test_runs_labels;
          Alcotest.test_case "typed errors" `Quick test_errors;
          Alcotest.test_case "out-of-range amplitude" `Quick
            test_out_of_range_amplitude;
          Alcotest.test_case "batch JSONL" `Quick test_batch;
          Alcotest.test_case "session close" `Quick test_session_close_endpoint;
          Alcotest.test_case "unresolvable host" `Quick test_unresolvable_host;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics exposition" `Quick test_metrics_exposition;
          Alcotest.test_case "report snapshots" `Quick test_report_endpoint;
          Alcotest.test_case "loadgen keeps its own latencies" `Quick
            test_loadgen_own_latencies;
          Alcotest.test_case "access log + spans" `Quick
            test_access_log_and_spans;
        ] );
      ( "overload",
        [
          Alcotest.test_case "timeout then recovery" `Quick
            test_timeout_then_recovery;
          Alcotest.test_case "backpressure 429" `Quick test_backpressure;
          Alcotest.test_case "stray delay_ms ignored" `Quick
            test_stray_delay_ignored;
          Alcotest.test_case "shot cap 422" `Quick test_shot_cap;
          Alcotest.test_case "integer fields in exact range" `Quick test_integer_fields;
          Alcotest.test_case "timeout_ms cap" `Quick test_timeout_cap;
          Alcotest.test_case "start rejects bad config" `Quick
            test_start_rejects_bad_config;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "parallel submits, one session" `Quick
            test_parallel_submits_one_session;
          Alcotest.test_case "submit/close races" `Quick
            test_submit_close_races;
        ] );
    ]
