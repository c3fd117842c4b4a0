(** Matrix-product-state simulation.

    The structured tensor-network representation the paper points to in
    Section IV (refs [31], [35]): the state is a chain of rank-3 site
    tensors; memory is governed by the bond dimension, which grows only
    with the entanglement the circuit actually creates.  Two-qubit gates
    are applied by contracting the two sites, applying the 4×4 matrix,
    and splitting back with a truncated SVD ({!Qdt_linalg.Svd}).
    Non-adjacent two-qubit gates are routed with temporary swaps. *)

type t

(** [create n] is [|0…0⟩] with all bond dimensions 1; site [i] carries
    qubit [i]. *)
val create : int -> t

val num_qubits : t -> int

(** [bond_dims mps] — the [n-1] internal bond dimensions. *)
val bond_dims : t -> int array

val max_bond_dim : t -> int

(** [truncation_error mps] — accumulated discarded weight [Σ σ²]. *)
val truncation_error : t -> float

val memory_bytes : t -> int

(** [apply_gate1 mps u q] applies a 2×2 matrix to qubit [q]. *)
val apply_gate1 : t -> Qdt_linalg.Mat.t -> int -> unit

(** [apply_gate2 mps ?max_bond ?cutoff u q] applies a 4×4 matrix to the
    adjacent pair ([q], [q+1]); matrix bit 0 is qubit [q]. *)
val apply_gate2 : t -> ?max_bond:int -> ?cutoff:float -> Qdt_linalg.Mat.t -> int -> unit

(** [apply_instruction mps ?max_bond ?cutoff instr] — any 1- or 2-qubit
    unitary instruction, routing across the chain as needed.
    @raise Invalid_argument for instructions on three or more qubits. *)
val apply_instruction :
  t -> ?max_bond:int -> ?cutoff:float -> Qdt_circuit.Circuit.instruction -> unit

(** [run ?max_bond ?cutoff circuit] simulates a unitary circuit from
    [|0…0⟩]. Defaults: unbounded bond, [cutoff = 1e-12]. *)
val run : ?max_bond:int -> ?cutoff:float -> Qdt_circuit.Circuit.t -> t

(** [amplitude mps k] — [⟨k|ψ⟩] in O(n·D²) time. *)
val amplitude : t -> int -> Qdt_linalg.Cx.t

val norm : t -> float

(** [to_vec mps] — densify (small [n] only): every [amplitude], bit for
    bit, from one depth-first walk that builds each prefix product once. *)
val to_vec : t -> Qdt_linalg.Vec.t

(** [expectation_z mps q] — [⟨ψ|Z_q|ψ⟩ / ⟨ψ|ψ⟩] in O(n·D³) time. *)
val expectation_z : t -> int -> float

(** [sample ?seed mps ~shots] — draw basis states from [|ψ|²] by
    sequential conditional sampling along the chain (cost O(n·D²) per
    shot after an O(n·D³) environment sweep). *)
val sample : ?seed:int -> t -> shots:int -> (int * int) list
