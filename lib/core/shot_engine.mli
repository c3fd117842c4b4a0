(** Static/dynamic shot-execution split (mqt-core's sampling strategy).

    Classifies a circuit once; backend [sample] adapters branch on the
    result.  Static circuits keep the simulate-once-then-sample fast path
    (bit-identical RNG streams to the pre-dynamic code); dynamic circuits
    re-execute per shot with a live classical register. *)

type plan =
  | Static_unitary  (** no measure/reset/conditional: historical fast path *)
  | Static_final of { unitary : Qdt_circuit.Circuit.t; map : (int * int) list }
      (** terminal measurements only: run [unitary] once, sample, remap
          each sampled basis state through the [(qubit, clbit)] wiring *)
  | Dynamic  (** re-execute per shot ({!sample_per_shot}) *)

val plan : Qdt_circuit.Circuit.t -> plan

(** [remap_counts ~map counts] rewires full-basis sampled counts onto the
    classical register: for each [(qubit, clbit)] in program order, bit
    [qubit] of the sampled key becomes bit [clbit] of the result key
    (later writes to the same clbit win).  Collisions are aggregated. *)
val remap_counts : map:(int * int) list -> (int * int) list -> (int * int) list

(** [shot_key c clbits ~measure] — the counts key of one dynamic shot
    whose {!Qdt_circuit.Circuit.execute} returned [clbits]: the
    classical register ({!Qdt_circuit.Circuit.creg_value}) when [c]
    measures, else [measure q] on every qubit [q] in ascending order,
    with qubit [q] as bit [q].  [measure] collapses one qubit of the
    shot's final state. *)
val shot_key : Qdt_circuit.Circuit.t -> int array -> measure:(int -> int) -> int

(** [sample_per_shot ~seed ~shots ~run_shot] — the dynamic path: one
    seeded RNG stream shared across shots, [run_shot] executes one shot
    and returns its counts key.  Returns counts sorted by key, matching
    the backends' static sampling output. *)
val sample_per_shot :
  seed:int -> shots:int -> run_shot:(rng:Random.State.t -> int) -> (int * int) list

(** [sample_per_shot_parallel ~seed ~shots ~run_shot] — the dynamic path
    across the {!Qdt_par} domain pool.  At jobs = 1 this is exactly
    {!sample_per_shot}.  At jobs >= 2, shot [i] draws from its own RNG
    stream seeded by [(seed, i)] — outcomes depend only on the seed and
    shot index, so counts are identical at any job count >= 2 (but differ
    from the jobs = 1 single-stream output).  [run_shot] must be
    reentrant: it is invoked concurrently and must build per-shot state
    fresh rather than reuse shared scratch. *)
val sample_per_shot_parallel :
  seed:int -> shots:int -> run_shot:(rng:Random.State.t -> int) -> (int * int) list
