(** Peephole circuit optimization.

    Gate-level rewrites that need no global analysis: adjacent
    inverse-pair cancellation ([H·H], [CX·CX], [S·S†], …), merging of
    runs of diagonal rotations on the same wire into one phase gate, and
    removal of identity gates.  Rotation merging treats [Rz]/[Phase]/
    [Z]/[S]/[T] uniformly, so results are guaranteed only up to global
    phase — which is the equivalence the verification backends check. *)

type stats = {
  removed : int;   (** instructions deleted by cancellation *)
  merged : int;    (** instructions merged into another *)
}

(** [cancel_inverses c] removes adjacent gate/inverse pairs (adjacency on
    the gate's own qubits; unrelated gates in between are ignored).
    Iterates to a fixpoint. *)
val cancel_inverses : Qdt_circuit.Circuit.t -> Qdt_circuit.Circuit.t * stats

(** [merge_rotations c] fuses consecutive diagonal gates on a wire into a
    single [Phase] (or drops them if the total angle vanishes), and fuses
    consecutive [Rx] into one [Rx]. *)
val merge_rotations : Qdt_circuit.Circuit.t -> Qdt_circuit.Circuit.t * stats

(** [optimize c] — [cancel_inverses] and [merge_rotations] to fixpoint. *)
val optimize : Qdt_circuit.Circuit.t -> Qdt_circuit.Circuit.t * stats

(** [diag_angle g] — the |1⟩-phase of a diagonal single-qubit gate (Rz up
    to global phase), [None] for non-diagonal gates.  Shared with the
    phase-polynomial optimizer. *)
val diag_angle : Qdt_circuit.Gate.t -> float option

(** [non_clifford_count c] counts the diagonal gates ({!diag_angle})
    whose angle is not a multiple of π/2 — T-like gates however they
    are spelled (T, T†, Rz, phase). *)
val non_clifford_count : Qdt_circuit.Circuit.t -> int
