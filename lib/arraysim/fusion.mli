(** Gate fusion for the statevector: fewer passes over the [2^n]
    amplitudes for the same unitary.

    {!plan} compiles a unitary-only circuit into kernel passes:

    - each wire's pending single-qubit gates multiply into one 2×2;
    - a one-control gate or a plain swap opens a block on its pair that
      takes the pending gates on both wires, every later gate on the
      same pair, and later single-qubit gates on either wire until
      another operation touches that wire;
    - a gate on three or more qubits (multi-controlled gates, Fredkin)
      flushes its wires and passes through unchanged;
    - a block runs as one 4×4 pass ({!Statevector.apply_matrix2}) only
      when the passes it replaces would cost more, by measured kernel
      costs: a 4×4 pass costs about 1.9 general 2×2 passes, a diagonal
      or anti-diagonal 2×2 about 0.7, a one-control gate or swap about
      0.3.  Otherwise its gates keep their own kernels, in order: a lone
      two-qubit gate always does, and so does QFT's controlled phase
      with one Hadamard.

    Barriers do not change the state and are dropped.  The result agrees
    with the unfused walk ({!Statevector.run}), which stays the
    reference, to about 1e-12 per amplitude; products are taken in a
    different order, so the two are not bit-identical.  A plan is cheap
    to build (microseconds) and is not cached. *)

type t

(** [plan c] — the passes of unitary-only circuit [c].
    @raise Invalid_argument if [c] measures, resets or branches. *)
val plan : Qdt_circuit.Circuit.t -> t

(** [run sv p] applies [p] to [sv] in place.  It adds the plan's source
    gate count to the [sv.gates] counter, as the unfused walk would, and
    brackets each pass in one [sv.gate] span.
    @raise Invalid_argument if [sv]'s qubit count is not the plan's. *)
val run : Statevector.t -> t -> unit

(** [passes p] — kernel passes over the state that {!run} makes. *)
val passes : t -> int

(** [gates p] — source gates the plan covers (barriers excluded). *)
val gates : t -> int
