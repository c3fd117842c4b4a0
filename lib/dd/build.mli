(** Constructing decision diagrams for states and operations.

    The builders keep everything quasi-reduced: a basis state on [n] qubits
    is a chain of [n] nodes, the identity a chain of [n] matrix nodes, and
    arbitrary (multi-)controlled single-qubit gates are built recursively
    level by level — never by densifying a [2^n] array first. *)

(** [zero_state mgr n] is [|0…0⟩]. *)
val zero_state : Pkg.t -> int -> Pkg.edge

(** [basis_state mgr n k] is [|k⟩]. *)
val basis_state : Pkg.t -> int -> int -> Pkg.edge

(** [from_vec mgr v] encodes a dense vector of length [2^n] (Fig. 1 of the
    paper: the recursive halving of the state vector). *)
val from_vec : Pkg.t -> Qdt_linalg.Vec.t -> Pkg.edge

(** [identity mgr n] is the identity operation on [n] qubits. *)
val identity : Pkg.t -> int -> Pkg.edge

(** [projector_ones mgr n qubits] projects onto the subspace where every
    qubit in [qubits] is |1⟩ (identity on the others). *)
val projector_ones : Pkg.t -> int -> int list -> Pkg.edge

(** [gate mgr ~num_qubits ~controls ~target u] is the matrix DD of the 2×2
    matrix [u] applied to [target] under [controls] (identity when any
    control is |0⟩).  [u] need not be unitary — projectors are used for
    measurement. *)
val gate :
  Pkg.t -> num_qubits:int -> controls:int list -> target:int -> Qdt_linalg.Mat.t ->
  Pkg.edge

(** [swap mgr ~num_qubits ~controls a b] is the (controlled) SWAP DD. *)
val swap : Pkg.t -> num_qubits:int -> controls:int list -> int -> int -> Pkg.edge

(** [instruction mgr ~num_qubits instr] is the matrix DD of a unitary
    circuit instruction, taken from [mgr]'s gate-DD cache ({!Pkg.gate_dd})
    when an earlier call built it since the last collection.
    @raise Invalid_argument on measurements/resets. *)
val instruction :
  Pkg.t -> num_qubits:int -> Qdt_circuit.Circuit.instruction -> Pkg.edge

(** [circuit_unitary mgr c] multiplies all instruction DDs — the DD
    analogue of {!Qdt_arraysim.Unitary_builder.unitary}. *)
val circuit_unitary : Pkg.t -> Qdt_circuit.Circuit.t -> Pkg.edge
