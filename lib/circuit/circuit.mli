(** Quantum circuits: the common input language of all four backends.

    A circuit is an ordered list of instructions over [num_qubits] qubits
    and [num_clbits] classical bits.  Values are immutable; the builder
    functions return extended circuits and are designed for pipelining:

    {[
      let bell = Circuit.(empty 2 |> h 1 |> cx 1 0)
    ]}

    Qubit [n-1] is the most significant (paper convention, Section III). *)

type instruction =
  | Apply of { gate : Gate.t; controls : int list; target : int }
      (** [gate] on [target], conditioned on all [controls] being |1⟩.
          An empty control list is an ordinary single-qubit gate. *)
  | Swap of { controls : int list; a : int; b : int }
      (** SWAP of [a] and [b]; non-empty [controls] makes it a Fredkin. *)
  | Measure of { qubit : int; clbit : int }
  | Reset of int
  | Barrier of int list
  | If of { value : int; instr : instruction }
      (** Classically-controlled operation (OpenQASM 2 [if (c==value) ...]):
          run [instr] when the whole classical register equals [value].
          [instr] may be any gate, measure or reset — not a barrier and not
          another conditional. *)

type t

(** [empty ?clbits n] is the empty circuit on [n] qubits.
    @raise Invalid_argument if [n <= 0]. *)
val empty : ?clbits:int -> int -> t

val num_qubits : t -> int
val num_clbits : t -> int

(** [instructions c] in program order. *)
val instructions : t -> instruction list

val length : t -> int

(** [add instr c] appends [instr].
    @raise Invalid_argument on out-of-range or overlapping qubits. *)
val add : instruction -> t -> t

(** {1 Gate builders} — each appends one instruction. *)

val gate : Gate.t -> int -> t -> t
val cgate : Gate.t -> controls:int list -> target:int -> t -> t
val x : int -> t -> t
val y : int -> t -> t
val z : int -> t -> t
val h : int -> t -> t
val s : int -> t -> t
val sdg : int -> t -> t
val t : int -> t -> t
val tdg : int -> t -> t
val sx : int -> t -> t
val rx : float -> int -> t -> t
val ry : float -> int -> t -> t
val rz : float -> int -> t -> t
val phase : float -> int -> t -> t
val u3 : theta:float -> phi:float -> lambda:float -> int -> t -> t
val cx : int -> int -> t -> t
val cy : int -> int -> t -> t
val cz : int -> int -> t -> t
val ch : int -> int -> t -> t
val cphase : float -> int -> int -> t -> t
val crz : float -> int -> int -> t -> t
val cry : float -> int -> int -> t -> t
val ccx : int -> int -> int -> t -> t
val ccz : int -> int -> int -> t -> t
val swap : int -> int -> t -> t
val cswap : int -> int -> int -> t -> t
val measure : qubit:int -> clbit:int -> t -> t
val measure_all : t -> t
val reset : int -> t -> t
val barrier : t -> t

(** [if_eq value instr c] appends [instr] conditioned on the classical
    register equalling [value].
    @raise Invalid_argument when the circuit has no classical register,
    [value] is negative or does not fit the register, or [instr] is a
    barrier or a nested conditional. *)
val if_eq : int -> instruction -> t -> t

(** [if_gate value g q c] — conditional single-qubit gate. *)
val if_gate : int -> Gate.t -> int -> t -> t

val if_x : int -> int -> t -> t
val if_z : int -> int -> t -> t

(** {1 Whole-circuit operations} *)

(** [append a b] runs [a] then [b].
    @raise Invalid_argument if qubit counts differ. *)
val append : t -> t -> t

(** [adjoint c] is the inverse circuit [c†]: reversed order, adjoint gates.
    @raise Invalid_argument if [c] contains measurements or resets. *)
val adjoint : t -> t

(** [remap f c] renames qubits through [f] (must be injective on use). *)
val remap : (int -> int) -> t -> t

(** [is_unitary_only c] holds when [c] has no measurement/reset/conditional. *)
val is_unitary_only : t -> bool

(** [unitary_instructions c] drops measurements, resets, barriers and
    conditionals. *)
val unitary_instructions : t -> instruction list

(** [has_conditionals c] — does [c] contain an [If]? *)
val has_conditionals : t -> bool

(** [has_measure c] — does [c] measure anything (conditionals included)? *)
val has_measure : t -> bool

(** [is_dynamic c] — the shot-loop classification: true when [c] contains a
    conditional, a reset, or a mid-circuit measurement (a measured qubit
    that is used again later).  Static circuits can be simulated once and
    sampled; dynamic circuits must re-execute per shot. *)
val is_dynamic : t -> bool

(** [creg_value clbits] packs a classical-bit array into an integer
    (clbit [k] is bit [k]) — the value OpenQASM 2 [if (c==n)] tests. *)
val creg_value : int array -> int

(** [execute c ~rng step] — the instruction walk every simulator shares:
    allocate a zeroed classical register of [max 1 (num_clbits c)] bits,
    call [step instr ~rng ~clbits] on each instruction in program order,
    and return the register.  [step] is a simulator's
    [apply_instruction] on its state; [rng] drives measurement
    collapse, so one seed gives one outcome on every engine that walks
    the same way. *)
val execute :
  t ->
  rng:Random.State.t ->
  (instruction -> rng:Random.State.t -> clbits:int array -> unit) ->
  int array

(** {1 Statistics} *)

(** [gate_counts c] maps gate mnemonics ("h", "cx", "ccx", "swap", …, with
    one leading "c" per control) to multiplicities. *)
val gate_counts : t -> (string * int) list

(** [count_total c] counts gate instructions (barriers excluded). *)
val count_total : t -> int

(** [count_two_qubit c] counts instructions touching exactly two qubits. *)
val count_two_qubit : t -> int

(** [t_count c] counts T/T† gates (controls included in the count basis:
    a controlled-T counts once). *)
val t_count : t -> int

(** [depth c] is the circuit depth: the longest chain of instructions that
    share a qubit (barriers synchronise but do not count). *)
val depth : t -> int

(** [qubits_of_instruction i] lists every qubit [i] touches. *)
val qubits_of_instruction : instruction -> int list

(** [equal a b] is structural equality (angles within [1e-12]). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
val pp_instruction : Format.formatter -> instruction -> unit
