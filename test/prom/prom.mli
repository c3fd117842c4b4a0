(** Parser/validator for the Prometheus text exposition format
    (version 0.0.4) — the inverse of {!Qdt_obs.Metrics.render_prometheus}, so a
    scrape of [qdt serve]'s [GET /metrics] can be validated in-tree (CI,
    tests) without a Python dependency.

    The grammar enforced here is the subset the renderer emits plus what
    a standard scraper requires: every sample line must parse
    ([name{labels} value [timestamp]]), every sample must belong to the
    family declared by the preceding [# TYPE] line (histogram families
    own their [_bucket]/[_sum]/[_count] series), metric and label names
    must match the exposition grammar, and label values must be properly
    quoted.  Anything else is an error naming the offending line. *)

type sample = {
  metric : string;  (** full sample name, e.g. [qdt_serve_latency_ns_bucket] *)
  labels : (string * string) list;
  value : float;
}

type family = {
  name : string;  (** family (base) name from the [# TYPE] line *)
  kind : string;  (** [counter], [gauge], [histogram] or [untyped] *)
  samples : sample list;  (** in exposition order *)
}

(** [parse text] — families in exposition order, or [Error] naming the
    first offending line (1-based). *)
val parse : string -> (family list, string) result

(** [find name families] — the family registered under [name], if any. *)
val find : string -> family list -> family option

(** Sum of the family's plain sample values (for histogram families:
    the [_count] samples) — "is this counter nonzero" in one call. *)
val total : family -> float
