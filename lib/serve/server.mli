(** The [qdt serve] engine: a long-running HTTP/1.1 + JSONL simulation
    server with a first-class telemetry plane.

    Architecture (see DESIGN.md, "Serving and the telemetry plane"):
    connection handlers are lightweight threads on the accepting domain
    (they block on sockets, releasing the runtime lock), compute runs
    on a pool of worker domains fed by one bounded job queue.  A full
    queue rejects with 429 + [Retry-After] (backpressure, not
    buffering); each job carries a wall-clock deadline enforced by the
    handler — on expiry the client gets a typed timeout error and the
    worker's eventual result is discarded, so one slow job never wedges
    a worker visible-side.  Jobs naming a session run on warm
    {!Session_pool} engines; jobs without one pay cold create/close per
    request.

    Telemetry: [GET /metrics] (Prometheus exposition incl. queue-depth /
    inflight / active-sessions / uptime gauges, per-endpoint latency
    histograms, resource peaks), [GET /healthz], [GET /report] (a
    {!Qdt_obs.Report} snapshot of the process so far), a JSONL access
    log, and [serve.*] trace spans nesting queue-wait and run inside
    request handling. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  workers : int;  (** worker domains executing jobs *)
  queue_depth : int;  (** queued jobs beyond which submits get 429; at least 1 *)
  default_timeout_ms : int;
      (** per-job wall-clock budget, in [[1, ]{!Protocol.max_timeout_ms}[]] *)
  max_sessions : int;  (** warm-session cap (LRU eviction past it) *)
  access_log : string option;  (** JSONL access log path *)
}

val default_config : config

type t

(** Bind, spawn the worker domains and the accept loop, and return.
    Raises [Invalid_argument], before binding anything, when
    [default_timeout_ms] or [queue_depth] is outside its range, and
    [Unix.Unix_error] when the address cannot be bound. *)
val start : config -> t

(** The bound port (useful with [port = 0]). *)
val port : t -> int

(** Stop accepting, drop open connections, drain the workers, close the
    warm sessions and the access log.  Idempotent. *)
val stop : t -> unit

(** [run cfg] — {!start}, print a "listening on HOST:PORT" line, then
    serve until SIGINT/SIGTERM; used by the CLI. *)
val run : config -> unit
