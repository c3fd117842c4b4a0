(* The serve engine.  Threading model:

   - one accept thread (systhread) selects on the listening socket plus
     a self-pipe so [stop] can wake it portably;
   - one handler thread per connection, also on the accepting domain —
     handlers only parse, enqueue, and block on sockets/pipes, and
     blocking syscalls release the runtime lock;
   - [cfg.workers] worker *domains* executing jobs from one bounded
     queue — compute runs genuinely in parallel.  Each job runs inside
     [Qdt_par.occupy], so while two jobs run, their kernels stay on
     their own domains instead of waiting on the domain pool.

   Per-job timeouts without preemption: each queued job (a "ticket")
   carries a pipe.  The worker writes one byte when the job starts
   running ('S') and one when it finishes ('D'); the handler selects on
   the pipe with the job's deadline.  On expiry the handler marks the
   ticket Abandoned (re-checking, under the ticket mutex, that the
   worker didn't just finish) and answers with the typed timeout error;
   the worker discards the result of an abandoned ticket and moves on —
   a slow job costs one worker at most its own runtime, never the
   server.  All pipe writes and the close happen under the ticket
   mutex, so the worker never writes into a closed descriptor. *)

module Metrics = Qdt_obs.Metrics
module Trace = Qdt_obs.Trace
module Clock = Qdt_obs.Clock
module Report = Qdt_obs.Report
module Json = Qdt_obs.Json

type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  default_timeout_ms : int;
  max_sessions : int;
  access_log : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8177;
    workers = 2;
    queue_depth = 64;
    default_timeout_ms = 30_000;
    max_sessions = 32;
    access_log = None;
  }

(* Largest request body a connection may send. *)
let max_body_bytes = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Instruments (created once; label sets are small and closed)         *)
(* ------------------------------------------------------------------ *)

let endpoints =
  [ "healthz"; "metrics"; "report"; "jobs"; "batch"; "sessions_close"; "other" ]

let req_counters =
  List.map
    (fun ep ->
      (ep, Metrics.counter_with ~labels:[ ("endpoint", ep) ] "qdt.serve.requests"))
    endpoints

let latency_histograms =
  List.map
    (fun ep ->
      ( ep,
        Metrics.histogram_with ~labels:[ ("endpoint", ep) ]
          "qdt.serve.latency_ns" ))
    endpoints

let outcomes = [ "ok"; "error"; "timeout"; "rejected" ]

let job_counters =
  List.map
    (fun o ->
      (o, Metrics.counter_with ~labels:[ ("outcome", o) ] "qdt.serve.jobs"))
    outcomes

let count_job outcome =
  match List.assoc_opt outcome job_counters with
  | Some c -> Metrics.incr c
  | None -> ()

let g_queue_depth = Metrics.gauge "qdt.serve.queue_depth"
let g_inflight = Metrics.gauge "qdt.serve.inflight"
let g_uptime = Metrics.gauge "qdt.serve.uptime_s"
let h_queue_wait = Metrics.histogram "qdt.serve.queue_wait_ns"
let h_run = Metrics.histogram "qdt.serve.run_ns"

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)
(* ------------------------------------------------------------------ *)

type tstate = Queued | Running | Done | Abandoned

type ticket = {
  t_req : Protocol.job_request;
  t_engine : Qdt.Backend.engine;  (** the engine named by [t_req.backend] *)
  t_circuit : Qdt_circuit.Circuit.t;
  enqueue_ns : int;
  tmu : Mutex.t;
  mutable state : tstate;
  mutable outcome :
    (Qdt.Job.result Qdt.Backend.outcome, Session_pool.error) result option;
  mutable queue_wait_ns : int;
  mutable run_ns : int;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mutable pipe_open : bool;
}

(* Caller holds [k.tmu]. *)
let signal k c =
  if k.pipe_open then
    try ignore (Unix.write k.pipe_w (Bytes.make 1 c) 0 1)
    with Unix.Unix_error _ -> ()

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  actual_port : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  queue : ticket option Queue.t;
  qmu : Mutex.t;
  qcond : Condition.t;
  pool : Session_pool.t;
  mutable worker_domains : unit Domain.t list;
  mutable accept_thread : Thread.t option;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  cmu : Mutex.t;
  hcond : Condition.t;
  mutable handler_count : int;
  report : Report.t;
  started_ns : int;
  access : out_channel option;
  amu : Mutex.t;
  inflight : int Atomic.t;
}

let port t = t.actual_port
let set_queue_depth n = Metrics.set g_queue_depth (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let run_job t (k : ticket) =
  let req = k.t_req in
  try
    match req.Protocol.session with
    | Some name ->
        Session_pool.submit t.pool ~session:name ~engine:k.t_engine k.t_circuit
          req.Protocol.job
    | None -> Ok (Qdt.Backend.run_once k.t_engine k.t_circuit req.Protocol.job)
  with exn ->
    (* A raising engine is a bug, but it must cost this job only. *)
    Ok
      (Error
         {
           Qdt.Backend.backend = req.Protocol.backend;
           operation = "submit";
           reason = "internal error: " ^ Printexc.to_string exn;
         })

let execute t (k : ticket) =
  let proceed =
    Mutex.lock k.tmu;
    let p = k.state = Queued in
    if p then begin
      k.state <- Running;
      k.queue_wait_ns <- Clock.now_ns () - k.enqueue_ns;
      signal k 'S'
    end;
    Mutex.unlock k.tmu;
    p
  in
  if proceed then begin
    Metrics.observe h_queue_wait k.queue_wait_ns;
    Atomic.incr t.inflight;
    Metrics.set g_inflight (float_of_int (Atomic.get t.inflight));
    let t0 = Clock.now_ns () in
    let outcome = run_job t k in
    let run_ns = Clock.now_ns () - t0 in
    Atomic.decr t.inflight;
    Metrics.set g_inflight (float_of_int (Atomic.get t.inflight));
    Metrics.observe h_run run_ns;
    Mutex.lock k.tmu;
    k.run_ns <- run_ns;
    k.outcome <- Some outcome;
    if k.state = Running then begin
      k.state <- Done;
      signal k 'D'
    end;
    Mutex.unlock k.tmu
  end

let rec worker_loop t =
  Mutex.lock t.qmu;
  while Queue.is_empty t.queue do
    Condition.wait t.qcond t.qmu
  done;
  let item = Queue.pop t.queue in
  set_queue_depth (Queue.length t.queue);
  Mutex.unlock t.qmu;
  match item with
  | None -> ()
  | Some k ->
      Qdt.Par.occupy (fun () -> execute t k);
      worker_loop t

(* ------------------------------------------------------------------ *)
(* Handler-side job submission                                         *)
(* ------------------------------------------------------------------ *)

type reply = {
  status : int;
  body : string;
  outcome_label : string;
  r_queue_wait_ns : int;
  r_run_ns : int;
  retry_after : bool;
  request_fields : (string * string) list;
      (** backend, job and session of a decoded request, for the access
          log; empty when the body did not decode *)
}

let reply ?(retry_after = false) ?(queue_wait_ns = 0) ?(run_ns = 0) status
    outcome_label body =
  {
    status;
    body;
    outcome_label;
    r_queue_wait_ns = queue_wait_ns;
    r_run_ns = run_ns;
    retry_after;
    request_fields = [];
  }

let wait_byte k ~deadline =
  let buf = Bytes.create 1 in
  let rec go () =
    let remaining = float_of_int (deadline - Clock.now_ns ()) /. 1e9 in
    if remaining <= 0.0 then `Timeout
    else
      match Unix.select [ k.pipe_r ] [] [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> `Timeout
      | _ :: _, _, _ ->
          if Unix.read k.pipe_r buf 0 1 = 0 then `Timeout
          else `Byte (Bytes.get buf 0)
  in
  go ()

let reply_of_outcome k = function
  | Error pool_err ->
      reply 409 "error" ~queue_wait_ns:k.queue_wait_ns ~run_ns:k.run_ns
        (Protocol.error_body ~typ:"session_backend_mismatch"
           ~message:(Session_pool.error_message pool_err)
           [])
  | Ok (Error (be : Qdt.Backend.error)) ->
      reply 422 "error" ~queue_wait_ns:k.queue_wait_ns ~run_ns:k.run_ns
        (Protocol.error_body ~typ:"backend_error"
           ~message:(Qdt.Backend.error_to_string be)
           [
             ("backend", Json.string be.Qdt.Backend.backend);
             ("operation", Json.string be.Qdt.Backend.operation);
             ("reason", Json.string be.Qdt.Backend.reason);
           ])
  | Ok (Ok (payload, stats)) ->
      reply 200 "ok" ~queue_wait_ns:k.queue_wait_ns ~run_ns:k.run_ns
        (Protocol.ok_body ~job:k.t_req.Protocol.job ~payload ~stats
           ~queue_wait_ns:k.queue_wait_ns ~run_ns:k.run_ns)

let submit_and_await t (req : Protocol.job_request) circuit =
  (* The one place a job's backend name is resolved.  Cheap rejections
     stay out of the queue: an unknown backend answers immediately
     instead of wasting a worker dequeue. *)
  match Qdt.Registry.find_session req.Protocol.backend with
  | None ->
      let requested = req.Protocol.backend in
      let r =
        reply 400 "error"
          (Protocol.error_body ~typ:"unknown_backend"
             ~message:
               (Printf.sprintf "unknown backend %S%s" requested
                  (match Qdt.Registry.suggest requested with
                  | Some s -> Printf.sprintf " (did you mean %S?)" s
                  | None -> ""))
             [])
      in
      count_job "error";
      r
  | Some engine -> (
      let pipe_r, pipe_w = Unix.pipe () in
      let k =
        {
          t_req = req;
          t_engine = engine;
          t_circuit = circuit;
          enqueue_ns = Clock.now_ns ();
          tmu = Mutex.create ();
          state = Queued;
          outcome = None;
          queue_wait_ns = 0;
          run_ns = 0;
          pipe_r;
          pipe_w;
          pipe_open = true;
        }
      in
      let close_pipe () =
        Mutex.lock k.tmu;
        k.pipe_open <- false;
        Mutex.unlock k.tmu;
        (try Unix.close pipe_r with Unix.Unix_error _ -> ());
        try Unix.close pipe_w with Unix.Unix_error _ -> ()
      in
      let accepted =
        Mutex.lock t.qmu;
        let ok = Queue.length t.queue < t.cfg.queue_depth in
        if ok then begin
          Queue.push (Some k) t.queue;
          set_queue_depth (Queue.length t.queue);
          Condition.signal t.qcond
        end;
        Mutex.unlock t.qmu;
        ok
      in
      if not accepted then begin
        close_pipe ();
        count_job "rejected";
        reply 429 "rejected" ~retry_after:true
          (Protocol.error_body ~typ:"overloaded"
             ~message:
               (Printf.sprintf "job queue is full (depth %d); retry later"
                  t.cfg.queue_depth)
             [ ("queue_depth", Json.int t.cfg.queue_depth) ])
      end
      else begin
        let timeout_ms =
          Option.value req.Protocol.timeout_ms
            ~default:t.cfg.default_timeout_ms
        in
        (* The pipe is closed on every way out, a raising wait included. *)
        let resolution =
          Fun.protect ~finally:close_pipe @@ fun () ->
          let deadline = Clock.now_ns () + (timeout_ms * 1_000_000) in
          let first =
            Trace.with_span "serve.queue_wait" (fun () -> wait_byte k ~deadline)
          in
          let finished =
            match first with
            | `Timeout -> `Timeout
            | `Byte 'D' -> `Done
            | `Byte _ ->
                (* 'S': the job left the queue; now it is running. *)
                Trace.with_span "serve.run" (fun () ->
                    match wait_byte k ~deadline with
                    | `Timeout -> `Timeout
                    | `Byte _ -> `Done)
          in
          Mutex.lock k.tmu;
          let resolution =
            match k.outcome with
            | Some oc when k.state = Done -> `Result oc
            | _ ->
                ignore finished;
                k.state <- Abandoned;
                `Timeout
          in
          Mutex.unlock k.tmu;
          resolution
        in
        match resolution with
        | `Result oc ->
            let r = reply_of_outcome k oc in
            count_job r.outcome_label;
            r
        | `Timeout ->
            count_job "timeout";
            reply 504 "timeout" ~queue_wait_ns:k.queue_wait_ns
              (Protocol.error_body ~typ:"timeout"
                 ~message:
                   (Printf.sprintf "job exceeded its %d ms budget" timeout_ms)
                 [ ("timeout_ms", Json.int timeout_ms) ])
      end)

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)
(* ------------------------------------------------------------------ *)

let uptime_s t = float_of_int (Clock.now_ns () - t.started_ns) /. 1e9

let healthz_body t =
  Printf.sprintf
    "{\"ok\": true, \"uptime_s\": %s, \"queue_depth\": %d, \"inflight\": %d, \
     \"sessions\": %d}"
    (Json.float (uptime_s t))
    (Mutex.lock t.qmu;
     let n = Queue.length t.queue in
     Mutex.unlock t.qmu;
     n)
    (Atomic.get t.inflight) (Session_pool.size t.pool)

let metrics_body t =
  (* Sample the capacity signals right before rendering: uptime, peak
     RSS and heap.  Peaks are registry gauges, so they render under
     their own names with everything else. *)
  Metrics.set g_uptime (uptime_s t);
  Metrics.observe_rss ();
  Metrics.observe_heap ();
  Metrics.render_prometheus (Metrics.snapshot ())

(* One job request -> one reply, shared by /v1/jobs and /v1/batch.  The
   body is decoded once; the request's identifying fields ride out in
   the reply for the access log. *)
let handle_job t body =
  match Protocol.job_request_of_string body with
  | Error msg ->
      reply 400 "bad_request" (Protocol.error_body ~typ:"bad_request" ~message:msg [])
  | Ok preq ->
      let r =
        match Protocol.circuit_of preq with
        | Error msg ->
            reply 400 "bad_request"
              (Protocol.error_body ~typ:"bad_request" ~message:msg [])
        | Ok circuit -> submit_and_await t preq circuit
      in
      {
        r with
        request_fields =
          ("backend", Json.string preq.Protocol.backend)
          :: ("job", Json.string (Qdt.Job.describe preq.Protocol.job))
          :: Option.to_list
               (Option.map (fun s -> ("session", Json.string s)) preq.Protocol.session);
      }

let job_log_fields (r : reply) =
  r.request_fields
  @ [
      ("outcome", Json.string r.outcome_label);
      ("queue_wait_ns", Json.int r.r_queue_wait_ns);
      ("run_ns", Json.int r.r_run_ns);
    ]

let response_of_reply (r : reply) =
  Http.response ~status:r.status
    ~extra_headers:(if r.retry_after then [ ("Retry-After", "1") ] else [])
    r.body

(* Dispatch one parsed request.  Returns the endpoint label, the
   response, and extra JSONL fields for the access log. *)
let dispatch t (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" ->
      ("healthz", Http.response ~status:200 (healthz_body t), [])
  | "GET", "/metrics" ->
      ( "metrics",
        Http.response ~status:200
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (metrics_body t),
        [] )
  | "GET", "/report" ->
      ("report", Http.response ~status:200 (Report.snapshot t.report), [])
  | "POST", "/v1/jobs" ->
      let r = handle_job t req.Http.body in
      ("jobs", response_of_reply r, job_log_fields r)
  | "POST", "/v1/batch" ->
      (* JSONL in, JSONL out, same order; a bad line yields an error
         object on its line and the batch continues. *)
      let lines =
        String.split_on_char '\n' req.Http.body
        |> List.filter (fun l -> String.trim l <> "")
      in
      let replies = List.map (fun line -> handle_job t line) lines in
      let body =
        String.concat "" (List.map (fun r -> r.body ^ "\n") replies)
      in
      let jobs = List.length replies in
      let failed =
        List.length (List.filter (fun r -> r.outcome_label <> "ok") replies)
      in
      ( "batch",
        Http.response ~status:200 ~content_type:"application/x-ndjson" body,
        [ ("jobs", Json.int jobs); ("failed", Json.int failed) ] )
  | "POST", "/v1/sessions/close" -> (
      match Protocol.close_request_of_string req.Http.body with
      | Error msg ->
          ( "sessions_close",
            Http.response ~status:400
              (Protocol.error_body ~typ:"bad_request" ~message:msg []),
            [] )
      | Ok session ->
          let closed = Session_pool.close t.pool ~session in
          ( "sessions_close",
            Http.response ~status:200
              (Printf.sprintf "{\"ok\": true, \"closed\": %b}" closed),
            [ ("session", Json.string session) ] ))
  | _, ("/healthz" | "/metrics" | "/report" | "/v1/jobs" | "/v1/batch"
       | "/v1/sessions/close") ->
      ( "other",
        Http.response ~status:405
          (Protocol.error_body ~typ:"method_not_allowed"
             ~message:(req.Http.meth ^ " not supported here") []),
        [] )
  | _ ->
      ( "other",
        Http.response ~status:404
          (Protocol.error_body ~typ:"not_found"
             ~message:("no such endpoint: " ^ req.Http.path) []),
        [] )

(* ------------------------------------------------------------------ *)
(* Access log                                                          *)
(* ------------------------------------------------------------------ *)

let log_access t ~peer ~(req : Http.request) ~status ~latency_ns ~extra =
  match t.access with
  | None -> ()
  | Some oc ->
      let fields =
        [
          ("ts_unix_ns", Json.int (Clock.epoch_ns + Clock.now_ns ()));
          ("client", Json.string peer);
          ("method", Json.string req.Http.meth);
          ("path", Json.string req.Http.path);
          ("status", Json.int status);
          ("latency_ns", Json.int latency_ns);
        ]
        @ extra
      in
      let line = Json.obj fields ^ "\n" in
      Mutex.lock t.amu;
      (try
         output_string oc line;
         flush oc
       with Sys_error _ -> ());
      Mutex.unlock t.amu

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let peer_string = function
  | Unix.ADDR_INET (addr, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX path -> "unix:" ^ path

let handle_request t ~peer oc req =
  let t0 = Clock.now_ns () in
  let endpoint, resp, extra =
    Trace.with_span "serve.request" (fun () -> dispatch t req)
  in
  let latency_ns = Clock.now_ns () - t0 in
  (match List.assoc_opt endpoint req_counters with
  | Some c -> Metrics.incr c
  | None -> ());
  (match List.assoc_opt endpoint latency_histograms with
  | Some h -> Metrics.observe h latency_ns
  | None -> ());
  log_access t ~peer ~req ~status:resp.Http.status ~latency_ns ~extra;
  Http.write_response oc resp

let handle_connection t fd peer =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Http.read_request ~max_body_bytes ic with
      | Ok None -> ()
      | Error msg ->
          (* Best-effort error response, then drop the connection: after
             a torn request the stream offset is unknowable. *)
          (try
             Http.write_response oc
               (Http.response ~status:400
                  (Protocol.error_body ~typ:"bad_request" ~message:msg []))
           with _ -> ())
      | Ok (Some req) ->
          handle_request t ~peer oc req;
          loop ()
  in
  (try loop () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let conn_ids = Atomic.make 0

let spawn_handler t fd peer =
  let key = Atomic.fetch_and_add conn_ids 1 in
  Mutex.lock t.cmu;
  t.handler_count <- t.handler_count + 1;
  Hashtbl.replace t.conns key fd;
  Mutex.unlock t.cmu;
  ignore
    (Thread.create
       (fun () ->
         handle_connection t fd (peer_string peer);
         Mutex.lock t.cmu;
         t.handler_count <- t.handler_count - 1;
         Hashtbl.remove t.conns key;
         Condition.broadcast t.hcond;
         Mutex.unlock t.cmu)
       ())

let rec accept_loop t =
  if not (Atomic.get t.stopping) then begin
    (match Unix.select [ t.lsock; t.wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        if (not (List.mem t.wake_r ready)) && List.mem t.lsock ready then begin
          match Unix.accept t.lsock with
          | exception Unix.Unix_error _ -> ()
          | fd, peer -> spawn_handler t fd peer
        end);
    accept_loop t
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start cfg =
  if cfg.default_timeout_ms < 1 || cfg.default_timeout_ms > Protocol.max_timeout_ms then
    invalid_arg
      (Printf.sprintf "default job timeout %d ms is outside [1, %d] (one day)"
         cfg.default_timeout_ms Protocol.max_timeout_ms);
  if cfg.queue_depth < 1 then
    invalid_arg (Printf.sprintf "queue depth %d is below 1" cfg.queue_depth);
  if Sys.os_type = "Unix" then
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  (try Unix.bind lsock (Unix.ADDR_INET (Http.resolve_host cfg.host, cfg.port))
   with e ->
     Unix.close lsock;
     raise e);
  Unix.listen lsock 64;
  let actual_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let wake_r, wake_w = Unix.pipe () in
  let access =
    Option.map (fun path -> open_out_gen [ Open_creat; Open_append ] 0o644 path)
      cfg.access_log
  in
  let t =
    {
      cfg;
      lsock;
      actual_port;
      wake_r;
      wake_w;
      queue = Queue.create ();
      qmu = Mutex.create ();
      qcond = Condition.create ();
      pool = Session_pool.create ~max_sessions:cfg.max_sessions;
      worker_domains = [];
      accept_thread = None;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      conns = Hashtbl.create 32;
      cmu = Mutex.create ();
      hcond = Condition.create ();
      handler_count = 0;
      (* One report bracket for the server's lifetime: this is what
         turns metrics on, and what GET /report snapshots. *)
      report = Report.start ();
      started_ns = Clock.now_ns ();
      access;
      amu = Mutex.create ();
      inflight = Atomic.make 0;
    }
  in
  set_queue_depth 0;
  Metrics.set g_inflight 0.0;
  Metrics.set g_uptime 0.0;
  t.worker_domains <-
    List.init (max 1 cfg.workers) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.stopping true;
    (try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1)
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (* Shut open connections down (never close here — the handler owns
       its fd) so blocked reads wake with EOF, then wait them out. *)
    Mutex.lock t.cmu;
    Hashtbl.iter
      (fun _ fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
      t.conns;
    while t.handler_count > 0 do
      Condition.wait t.hcond t.cmu
    done;
    Mutex.unlock t.cmu;
    (* Poison pills after the handlers drained, so every accepted job
       still executes before the workers exit. *)
    Mutex.lock t.qmu;
    List.iter (fun _ -> Queue.push None t.queue) t.worker_domains;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qmu;
    List.iter Domain.join t.worker_domains;
    Session_pool.close_all t.pool;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    Option.iter close_out_noerr t.access;
    ignore (Report.finish t.report)
  end

let run cfg =
  let t = start cfg in
  Printf.printf "qdt serve: listening on %s:%d (workers=%d queue=%d)\n%!"
    cfg.host t.actual_port (max 1 cfg.workers) cfg.queue_depth;
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  prerr_endline "qdt serve: shutting down";
  stop t;
  Sys.set_signal Sys.sigint prev_int;
  Sys.set_signal Sys.sigterm prev_term
