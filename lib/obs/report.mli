(** Run reports: bracket one simulation, emit one self-contained JSON
    artifact.

    {!start} turns the {!Metrics} switch on (remembering its previous
    state), zeroes the peaks, and snapshots the registry; {!finish}
    assembles the artifact — wall clock, heap deltas, the nonzero peaks
    under ["watermarks"], the run diff of every other instrument under
    ["metrics"] (no value appears in both), a span-tree hotspot summary
    when the trace ring holds events, plus any caller sections — then
    restores the switch and zeroes the peaks again so nothing leaks into
    the next run.

    This module knows nothing about circuits or backends; callers attach
    those as named raw-JSON sections (e.g. [Features.to_json]). *)

type t

(** Report schema identifier embedded in every artifact. *)
val schema : string

val start : unit -> t

(** [add_section t ~name ~json] — attach a section under key [name];
    [json] must be one complete JSON value and is embedded verbatim.
    Sections appear in insertion order. *)
val add_section : t -> name:string -> json:string -> unit

(** Assemble the artifact and close the bracket (idempotent — later calls
    return the same JSON). *)
val finish : t -> string

(** [snapshot t] — assemble the artifact-so-far WITHOUT closing the
    bracket: the switch stays on, the peaks keep accumulating, and
    a later {!snapshot} or {!finish} sees everything recorded since
    {!start}.  This is what a long-running server returns from
    [GET /report] — each scrape is a complete, valid artifact of the
    process lifetime to date.  After {!finish}, returns the sealed
    artifact. *)
val snapshot : t -> string

(** [crash t ~error ~backtrace] — the [--dump-on-error] path: like
    {!finish} but with an ["error"] section and the tail of the trace
    ring, so a failed run still leaves a valid, inspectable artifact. *)
val crash : t -> error:string -> backtrace:string -> string

(** [write_file path json] — atomic write: the document goes to
    [<path>.tmp] first and is renamed into place, so a reader polling
    [path] (a scraper, a dashboard tailing report files) sees either the
    previous complete document or the new complete document — never a
    partial one. *)
val write_file : string -> string -> unit

(** Human-readable rendering of a report artifact (the [qdt report]
    subcommand).  Raises [Failure] when the input is not valid JSON. *)
val render : string -> string
