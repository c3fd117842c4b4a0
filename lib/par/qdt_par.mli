(** Multicore execution substrate: a lazily-started, reusable pool of
    OCaml 5 domains behind two fork-join primitives.

    {b Sizing.}  The worker count defaults to
    [Domain.recommended_domain_count ()], overridden by the [QDT_JOBS]
    environment variable, overridden in turn by {!set_jobs} (the CLI's
    [--jobs N]).  A setting of [1] disables parallel execution entirely:
    every primitive then runs its body inline on the calling domain, so
    the executed code path — and therefore every floating-point rounding
    and RNG draw — is bit-identical to a build without this module.

    {b Pool lifecycle.}  Nothing is spawned until the first parallel
    region actually runs with an effective job count above one.  The pool
    (of [jobs - 1] worker domains; the calling domain is the remaining
    participant) is then reused across regions, resized lazily when the
    setting changes, and can be torn down with {!shutdown} — the next
    parallel region restarts it.  The [qdt.par.domains] gauge tracks the
    participating domain count.

    {b Determinism.}  Work is split into fixed-size chunks whose
    boundaries depend only on the iteration range and [~chunk] — never on
    the domain count or on scheduling.  Whenever a range spans more than
    one chunk and [jobs () >= 2], the body is called once per chunk on
    those boundaries, whether the chunks run on the pool or on the caller
    (see below).  Callers that reduce should accumulate one partial per
    chunk (index [lo / chunk] when iterating from 0) and fold the
    partials in chunk order: the result is then identical at any job
    count [>= 2], nested or not, busy or not.

    {b Nesting and busy cores.}  A parallel region entered while another
    region is already running (on any domain) walks its chunks in order
    on the caller — the pool never deadlocks on nested use, and inner
    kernels of an already parallel outer loop stay serial, which is the
    efficient choice anyway.  So does every region entered while two or
    more calls are inside {!occupy}: each such call is a domain running
    a job of its own, the cores are taken, and waking a pool worker as
    well would only make that job wait for the extra domain to be
    scheduled.  A lone job (at most one call inside {!occupy}) still
    uses the pool.

    {b Memory model.}  The join at the end of each region synchronises
    through a mutex, so all writes made by workers inside the region
    happen-before the caller's subsequent reads. *)

(** Default chunk granularity of {!parallel_for} (iteration indices per
    chunk): [2{^14}].  Ranges no longer than one chunk run serially, which
    gives the statevector kernels their "small states stay serial" cutoff
    for free. *)
val default_chunk : int

(** Effective job count: {!set_jobs} if called, else [QDT_JOBS], else
    [Domain.recommended_domain_count ()]; always [>= 1]. *)
val jobs : unit -> int

(** [set_jobs n] pins the job count (clamped to [1 .. ]{!max_jobs}).
    Takes effect at the next parallel region; an existing pool of a
    different size is drained and respawned there. *)
val set_jobs : int -> unit

(** Upper clamp of the job count (64) — also the bound on
    {!domain_slot}. *)
val max_jobs : int

(** Worker domains currently spawned (0 when the pool is down; the
    calling domain is not counted). *)
val spawned_domains : unit -> int

(** Pool slot of the calling domain: 0 for the caller of a parallel
    region (and any domain outside the pool), [1 .. jobs - 1] for pool
    workers.  Bounded by the job clamp, so it is safe as a metric-label
    value (the ["domain"] dimension on [qdt.par.chunks] and the
    shot-engine's per-domain counters). *)
val domain_slot : unit -> int

(** [parallel_for ?chunk lo hi body] — [body a b] is invoked for disjoint
    subranges [\[a, b)] covering [\[lo, hi)], each at most [chunk]
    (default {!default_chunk}) long, concurrently across the pool.
    Runs [body lo hi] once, inline, when [jobs () = 1] or when the range
    fits in one chunk.  Inside another parallel region, or while two or
    more calls are inside {!occupy}, it calls [body] chunk by chunk, in
    order, on the caller.
    The first exception raised by any chunk is re-raised on the caller
    after all workers have stopped (remaining chunks are abandoned);
    side effects of chunks that already ran persist. *)
val parallel_for : ?chunk:int -> int -> int -> (int -> int -> unit) -> unit

(** [occupy f] runs [f ()] with the calling domain marked as running a
    job, and unmarks it when [f] returns or raises.  A server wraps each
    job in it: while two or more calls are inside [occupy], every
    {!parallel_for} runs its chunks on its caller instead of the pool
    (see "Nesting and busy cores").  Results do not depend on it. *)
val occupy : (unit -> 'a) -> 'a

(** [map ?chunk f arr] — deterministic fork-join map: [f] is applied to
    every element concurrently ([chunk] elements per task, default 1) and
    the results land at their input's index, so the output is identical
    to [Array.map f arr] whenever [f] is pure. *)
val map : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

(** Drain and join all worker domains.  Safe to call at any quiescent
    point (never from inside a parallel region); the next parallel region
    restarts the pool. *)
val shutdown : unit -> unit
