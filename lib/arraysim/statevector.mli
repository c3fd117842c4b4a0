(** Array-based state-vector simulation (Section II of the paper).

    The state of [n] qubits is the dense array of its [2^n] amplitudes;
    gates are applied in place with stride-[2^target] kernels rather than
    by materialising the full [2^n × 2^n] operator.  This is the baseline
    the other backends are measured against: simple, cache-friendly, and
    exponential in memory.

    {b Storage.}  Amplitudes live in one flat interleaved [float array]
    (the {!Qdt_linalg.Vec} layout); the gate kernels update raw float
    pairs in place and allocate nothing per gate.  A lazily grown scratch
    buffer (reported via the [qdt.sv.scratch_bytes] gauge) is reused
    across calls that need a dim-sized temporary, e.g. {!sample}. *)

type t

(** [create n] is [|0…0⟩] on [n] qubits. *)
val create : int -> t

(** [reset sv] returns the state to [|0…0⟩] in place, keeping the state
    buffer and any grown scratch — the buffer-reuse path of an arrays
    backend session. *)
val reset : t -> unit

(** [of_vec n v] wraps an explicit amplitude vector of length [2^n]. *)
val of_vec : int -> Qdt_linalg.Vec.t -> t

val to_vec : t -> Qdt_linalg.Vec.t

(** [vec_view sv] {e borrows} the amplitudes as a vector without copying:
    mutating [sv] mutates the view and vice versa.  Use for read-mostly
    consumers (expectation values, fidelity, column extraction) that would
    otherwise pay a full copy per call; take {!to_vec} when the result
    must outlive further evolution of [sv]. *)
val vec_view : t -> Qdt_linalg.Vec.t

(** [overwrite sv v] replaces the amplitudes of [sv] in place.
    @raise Invalid_argument on length mismatch. *)
val overwrite : t -> Qdt_linalg.Vec.t -> unit

(** [copy sv] — independent deep copy. *)
val copy : t -> t
val num_qubits : t -> int

(** [amplitude sv k] is [⟨k|ψ⟩]. *)
val amplitude : t -> int -> Qdt_linalg.Cx.t

(** [probability sv k] is [|⟨k|ψ⟩|²]. *)
val probability : t -> int -> float
val probabilities : t -> float array
val norm : t -> float

(** [apply_gate sv gate ~controls ~target] applies a (multi-)controlled
    single-qubit gate in place. *)
val apply_gate : t -> Qdt_circuit.Gate.t -> controls:int list -> target:int -> unit

(** [apply_matrix sv m ~controls ~target] applies an arbitrary 2×2 unitary. *)
val apply_matrix : t -> Qdt_linalg.Mat.t -> controls:int list -> target:int -> unit

(** [apply_matrix2 sv m ~controls ~q0 ~q1] applies an arbitrary 4×4
    unitary to the qubit pair [(q0, q1)] in one fused pass, the kernel
    {!Fusion} runs its two-qubit blocks on.  Matrix index convention:
    bit 0 of the matrix row/column index is qubit [q0], bit 1 is qubit
    [q1] — the same convention as {!Unitary_builder.instruction_matrix}
    on two qubits.  The matrix entries are read into locals once per
    chunk, so a pass allocates a few words in all, nothing per
    amplitude quadruple. *)
val apply_matrix2 :
  t -> Qdt_linalg.Mat.t -> controls:int list -> q0:int -> q1:int -> unit

(** [apply_swap sv ~controls a b] swaps qubits [a] and [b]. *)
val apply_swap : t -> controls:int list -> int -> int -> unit

(** [kraus_weight sv k ~target] is [‖K|ψ⟩‖²] for a 2×2 Kraus operator [K]
    acting on [target], computed without copying or modifying the state.
    Lets a trajectory sampler weigh every branch before committing one
    in place. *)
val kraus_weight : t -> Qdt_linalg.Mat.t -> target:int -> float

(** [renormalise sv] rescales to unit norm in place.
    @raise Invalid_argument when the norm is numerically zero. *)
val renormalise : t -> unit

(** [scratch_bytes sv] — current size of the reusable scratch buffer
    (also exported as the [qdt.sv.scratch_bytes] gauge). *)
val scratch_bytes : t -> int

(** [apply_instruction sv instr ~rng ~clbits] executes one instruction;
    measurements collapse the state using [rng] and record into [clbits]. *)
val apply_instruction :
  t -> Qdt_circuit.Circuit.instruction -> rng:Random.State.t -> clbits:int array -> unit

(** [run ?seed circuit] simulates from [|0…0⟩]; returns the final state and
    the classical bits (all zero when the circuit never measures). *)
val run : ?seed:int -> Qdt_circuit.Circuit.t -> t * int array

(** [run_unitary circuit] simulates ignoring measurements/resets entirely.
    @raise Invalid_argument if the circuit contains any. *)
val run_unitary : Qdt_circuit.Circuit.t -> t

(** [measure_qubit sv ~rng q] projects qubit [q], renormalises, and returns
    the observed bit. *)
val measure_qubit : t -> rng:Random.State.t -> int -> int

(** [prob_of_bit sv q bit] is the probability that measuring qubit [q]
    gives [bit]. *)
val prob_of_bit : t -> int -> int -> float

(** [expectation_z sv q] is [⟨ψ|Z_q|ψ⟩] (a real number). *)
val expectation_z : t -> int -> float

(** [sample ?seed sv ~shots] draws basis states from [|ψ|²] and returns
    (basis index, count) pairs sorted by index.  The probability table
    becomes its running sum in the scratch buffer, added in index order;
    each shot draws [r] uniform in [[0, 1)] and bisects for the first
    index whose running sum reaches [r] (the last index when none
    does), which is the outcome a linear scan adding the table in the
    same order picks.  Cost: one [O(2^n)] pass plus [O(n)] per shot. *)
val sample : ?seed:int -> t -> shots:int -> (int * int) list

(** [fidelity a b] is [|⟨a|b⟩|²]. *)
val fidelity : t -> t -> float

(** [memory_bytes sv] — amplitude payload size, for the E5 experiment. *)
val memory_bytes : t -> int

val pp : Format.formatter -> t -> unit
