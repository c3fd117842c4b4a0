(** The JSON job protocol [qdt serve] speaks.

    A job request is one JSON object:
    {v
    { "qasm":       "<OpenQASM 2.0 source>",          // required
      "backend":    "dd",                             // default "auto"
      "job":        { "kind": "sample",               // default full_state
                      "seed": 0, "shots": 100 },
      "session":    "alice",                          // optional warm session
      "timeout_ms": 2000 }                            // per-job override
    v}
    Job kinds mirror {!Qdt.Job.t}: [full_state], [amplitude] (field
    [index]), [sample] (fields [seed], [shots]), [expectation_z] (fields
    [seed], [qubit]).  Any other field is ignored.  Integer fields take
    integral numbers of magnitude at most 2^53, the range in which JSON
    numbers are exact; [timeout_ms] must lie in [1, 86400000] (one
    day).

    Responses are one JSON object per job: [{"ok": true, ...}] with the
    result payload, per-job stats, and queue-wait/run timings — or
    [{"ok": false, "error": {"type": ..., "message": ...}}]. *)

type job_request = {
  qasm : string;
  backend : string;
  job : Qdt.Job.t;
  session : string option;
  timeout_ms : int option;
}

(** The longest job budget, in ms: one day (86 400 000).  It bounds both
    a job's [timeout_ms] and the server's default budget. *)
val max_timeout_ms : int

(** Parse a request body.  The error string is user-facing (it goes into
    the 400 response). *)
val job_request_of_string : string -> (job_request, string) result

(** Parse the QASM source of an already-parsed request. *)
val circuit_of : job_request -> (Qdt_circuit.Circuit.t, string) result

(** Success response body.  Dense states render sparsely (entries with
    probability above 1e-12, capped at 4096) so a 20-qubit state does
    not produce a multi-megabyte response. *)
val ok_body :
  job:Qdt.Job.t ->
  payload:Qdt.Job.result ->
  stats:Qdt.Backend.stats ->
  queue_wait_ns:int ->
  run_ns:int ->
  string

(** [error_body ~typ ~message extra] — failure response body; [extra]
    fields are appended inside the ["error"] object and must be
    pre-rendered JSON values. *)
val error_body : typ:string -> message:string -> (string * string) list -> string

(** Body of the [POST /v1/sessions/close] request: the session name. *)
val close_request_of_string : string -> (string, string) result
