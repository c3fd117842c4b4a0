(** Named warm sessions behind the server: maps a client-chosen session
    name to a persistent {!Qdt.Backend.SESSION} engine, so repeat
    submissions from one client hit the warm unique tables, compute
    caches, and buffers of the session layer.

    Engines are not domain-safe, so the pool serialises submits per
    entry with a mutex — two server workers submitting to the same
    session run one after the other, while submits to different
    sessions proceed in parallel.  The pool holds at most
    [max_sessions] entries; creating one past the cap evicts the least
    recently used (closing its engine).  All operations are safe to
    call from any domain or thread. *)

type t

type error =
  | Backend_mismatch of { session : string; existing : string; requested : string }
      (** the named session is already open on a different backend *)

val error_message : error -> string

val create : max_sessions:int -> t

(** Open sessions right now. *)
val size : t -> int

(** [submit t ~session ~engine c job] — run [job] on the named warm
    session, creating the session (a fresh [engine] session) on first
    use.  [engine] is the one the caller resolved from the registry;
    the pool never looks a backend name up itself.  The inner result is
    the engine's own outcome — including the typed session-closed error
    when a concurrent {!close} won the race. *)
val submit :
  t ->
  session:string ->
  engine:Qdt.Backend.engine ->
  Qdt_circuit.Circuit.t ->
  Qdt.Job.t ->
  (Qdt.Job.result Qdt.Backend.outcome, error) result

(** [close t ~session] — close and drop the named session; [false] when
    it was not open.  Waits for an in-flight submit on the entry. *)
val close : t -> session:string -> bool

(** Close every session (server shutdown). *)
val close_all : t -> unit
