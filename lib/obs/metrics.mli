(** Process-global metrics registry: named counters, gauges, peaks and
    log₂-bucketed histograms, behind one switch.

    Design constraints (see DESIGN.md, "Observability"):
    - instruments are created once (usually at module initialisation) and
      held in a binding, so an instrumented site performs no name lookup
      (a [*_with] call per event, as [Backend.timed] makes once per job,
      looks its series up by key);
    - every recording operation starts with a single check of the global
      enabled flag and allocates nothing — when metrics are disabled the
      cost is one load and one branch.

    Instruments are identified by name: [counter "x"] called twice returns
    the same instrument.  Values survive {!set_enabled}; {!reset} zeroes
    every instrument but keeps registrations. *)

type counter
type gauge
type histogram

(** A gauge that can only rise: a running maximum ("how high did
    resource X get this run?"). *)
type peak

(** {1 Global switch} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Instruments (get-or-create by name)} *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** [peak name] — one per engine resource axis (DD nodes, MPS bond
    dimension, statevector bytes, …).  It reads as a gauge in
    {!snapshot}; a name is either a gauge or a peak, never both
    ([Invalid_argument]). *)
val peak : string -> peak

(** {1 Labeled instruments}

    A labeled instrument is an ordinary instrument registered under the
    canonical series key [name{k="v",...}] (labels sorted by key, values
    escaped) — {!snapshot}, {!diff} and {!to_json} treat it as one named
    cell.  Recording costs are identical to the unlabeled
    forms (the label join happens once, at registration).

    Label names must match [[a-zA-Z_][a-zA-Z0-9_]*]; label values may be
    any string.  Values must come from small closed sets (backend names,
    domain slots, operations) — never per-shot or per-gate data; a hard
    cap of 1000 series per base name backstops cardinality mistakes.
    Raises [Invalid_argument] on malformed/duplicate label names or when
    the cap is hit. *)

val counter_with : labels:(string * string) list -> string -> counter
val gauge_with : labels:(string * string) list -> string -> gauge
val histogram_with : labels:(string * string) list -> string -> histogram

(** [encode_series name labels] — the canonical snapshot key the labeled
    instrument is registered under (labels sorted and escaped).  Useful
    for looking a series up in a snapshot or report. *)
val encode_series : string -> (string * string) list -> string

(** [remove name] — unregister the instrument, so it no longer appears in
    snapshots (and hence in BENCH_*.json and run reports).  Holders of
    the old handle keep recording into a detached record, harmlessly; a
    later [counter name] etc. registers a fresh instrument.  Meant for
    probe instruments a measurement creates and must not ship in its
    results. *)
val remove : string -> unit

(** {1 Recording (no-ops while disabled)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> int -> unit

(** [raise_to p v] — raise the peak to [v] if [v] exceeds it (a
    lock-free CAS-max, safe from any domain). *)
val raise_to : peak -> float -> unit

val raise_to_int : peak -> int -> unit

(** Sample the process's peak resident set size ([VmHWM] from
    [/proc/self/status]; the peak stays 0 without procfs) into
    ["proc.peak_rss_bytes"], and the major-heap size (every domain's)
    into ["heap.peak_heap_words"].  Called at report assembly and on
    every [/metrics] scrape. *)
val observe_rss : unit -> unit

val observe_heap : unit -> unit

(** {1 Histogram geometry}

    Bucket [0] counts observations [v <= 0]; bucket [i >= 1] counts
    [2{^i-1} <= v < 2{^i}]; the last bucket ({!num_buckets}[- 1]) is the
    overflow bucket and also absorbs everything at or above
    [2{^num_buckets - 2}]. *)

val num_buckets : int

(** [bucket_of v] — the bucket index [observe] files [v] under. *)
val bucket_of : int -> int

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : int; max_value : int; buckets : int array }

type snapshot = (string * value) list

(** Current values of every registered instrument, sorted by name;
    [~with_peaks:false] leaves the peaks out. *)
val snapshot : ?with_peaks:bool -> unit -> snapshot

(** [diff ~before ~after] — per-instrument change: counters and histograms
    subtract, gauges keep the [after] reading.  Instruments absent from
    [before] are reported as-is. *)
val diff : before:snapshot -> after:snapshot -> snapshot

(** Zero every instrument (registrations survive). *)
val reset : unit -> unit

(** Every peak's current value, sorted by name. *)
val peaks : unit -> (string * float) list

(** Zero every peak and nothing else ({!Report} scopes peaks to a run). *)
val reset_peaks : unit -> unit

(** JSON object [{ "name": value, ... }]; histograms carry their buckets.
    Keys are sorted by name regardless of the input order. *)
val to_json : snapshot -> string

(** Human-readable multi-line rendering (one instrument per line). *)
val render : snapshot -> string

(** [render_prometheus s] — Prometheus text exposition (version 0.0.4) of
    a snapshot: one [# TYPE] line per metric family, series grouped by
    family, names sanitised to the grammar ([.] and [-] map to [_]).
    Histograms render as cumulative [_bucket{le="2^i - 1"}] samples plus
    [_sum] and [_count] taken directly from the tracked sum/count. *)
val render_prometheus : snapshot -> string
