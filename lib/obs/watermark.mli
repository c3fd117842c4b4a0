(** Resource watermarks: process-global running maxima, reset per run.

    Each backend instruments its natural resource axis (peak live DD
    nodes, peak MPS bond dimension and truncation error, peak TN
    intermediate tensor size/rank, statevector + scratch bytes, ZX
    spiders/edges per simplify round) so a {!Report} can say what a run
    actually peaked at, per representation.

    Same discipline as {!Metrics}: instruments are created once and held
    in a binding; a disabled observation costs one load and one branch
    and allocates nothing.  Observations are domain-safe (CAS-max on an
    atomic cell) and never take a lock. *)

type t

(** {1 Global switch} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Instruments (get-or-create by name)} *)

val watermark : string -> t
val name : t -> string

(** {1 Recording (no-ops while disabled)} *)

(** [observe w v] — raise the watermark to [v] if [v] exceeds the
    current peak. *)
val observe : t -> float -> unit

val observe_int : t -> int -> unit

(** [observe_rss ()] — sample the process's peak resident set size into
    the ["proc.peak_rss_bytes"] watermark (Linux: [VmHWM] from
    [/proc/self/status]; a no-op on platforms without procfs, leaving
    the watermark at zero).  A server calls this on every [/metrics]
    scrape so capacity headroom is visible without an external agent. *)
val observe_rss : unit -> unit

(** [observe_heap ()] — sample the major-heap size ([Gc.quick_stat]'s
    [heap_words], which counts every domain's heap) into the
    ["heap.peak_heap_words"] watermark.  Sampled where peak RSS is: at
    report assembly and on every [/metrics] scrape. *)
val observe_heap : unit -> unit

(** {1 Reading} *)

(** Current peak (0.0 after {!reset} or before any observation). *)
val peak : t -> float

(** Current peaks of every registered watermark, sorted by name. *)
val snapshot : unit -> (string * float) list

(** Zero every watermark (registrations survive).  Called by
    [Report.start] so peaks are scoped to one run. *)
val reset : unit -> unit
