(** Robust statistics over repeated samples (timings in particular).

    Timing samples are heavy-tailed — scheduler preemption and GC pauses
    inflate individual runs but never deflate them — so the centre and
    spread reported here are the median and the median absolute deviation
    (MAD), which ignore outliers, rather than mean and standard
    deviation, which don't.  The bench harness records a {!summary} per
    timing and the baseline comparison thresholds regressions at
    [median + k·MAD] (see [Baseline]). *)

(** [percentile ~p samples] — the [p]-th percentile ([0 <= p <= 100]) by
    linear interpolation between closest ranks.  Raises [Invalid_argument]
    on an empty array or [p] outside the range. *)
val percentile : p:float -> float array -> float

(** Median ([percentile ~p:50]). *)
val median : float array -> float

(** Median absolute deviation: [median (|x_i - median samples|)]. *)
val mad : float array -> float

type summary = { median : float; mad : float; min : float; max : float; reps : int }

(** Raises [Invalid_argument] on an empty array. *)
val summary : float array -> summary

(** [separated a b] — each side has at least 5 samples and every sample
    of one side beats every sample of the other ([a.max < b.min] or
    [b.max < a.min]).  Two runs of identical code pass this 1 time in
    126 at 5 samples each (2 / C(10,5)); the bench reports any A/B ratio
    that fails it as unresolved. *)
val separated : summary -> summary -> bool

(** JSON object [{"median": m, "mad": d, "min": lo, "max": hi, "reps": n}]
    — the per-timing record stored in BENCH_<id>.json and baselines. *)
val summary_to_json : summary -> string

(** Parse the object written by {!summary_to_json} (already decoded with
    [Json.parse]). *)
val summary_of_json : Json.t -> (summary, string) result
