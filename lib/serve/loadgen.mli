(** Concurrent load generator for [qdt serve] — [qdt loadgen] and bench
    e23 drive the server through this.

    [clients] threads each open one keep-alive connection and push
    [jobs_per_client] jobs drawn round-robin from [mix].  Each client
    keeps its successful jobs' latencies, and the summary's p50, p99 and
    max are exact percentiles of them ({!Qdt_obs.Stats.percentile}).
    The load generator records nothing in the {!Qdt_obs.Metrics}
    registry, so an in-process server's metrics stay its own.  A 429 is
    backpressure, not failure: the client honours [Retry-After] and
    retries (counted in [retried_429]). *)

type kind = [ `Sample | `Expectation | `Amplitude | `Full_state ]

type summary = {
  clients : int;
  jobs : int;  (** jobs attempted ([clients * jobs_per_client]) *)
  ok : int;
  failed : int;
  retried_429 : int;
  wall_s : float;
  jobs_per_s : float;  (** successful jobs per wall second *)
  p50_ns : int;  (** latency percentiles of the [ok] jobs; 0 when none succeeded *)
  p99_ns : int;
  max_ns : int;
}

val pp_summary : summary -> string

(** GHZ state preparation on [n] qubits — the default workload. *)
val default_qasm : int -> string

(** Blocks until every client finishes.  [use_sessions] gives client
    [i] the warm session ["lg<i>"]; without it every job pays a cold
    engine create/close on the server. *)
val run :
  ?host:string ->
  ?port:int ->
  ?backend:string ->
  ?use_sessions:bool ->
  ?mix:kind list ->
  ?qasm:string ->
  ?seed:int ->
  clients:int ->
  jobs_per_client:int ->
  unit ->
  summary
