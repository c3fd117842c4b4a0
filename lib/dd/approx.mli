(** Approximation of decision-diagram states.

    The idea of Hillmich, Kueng, Markov & Wille (DATE 2020 — ref [12] of
    the paper): a state DD often spends most of its nodes on negligible
    amplitudes; cutting edges whose probability contribution is below a
    threshold shrinks the diagram at a quantifiable fidelity cost.

    The criterion here is per-node: a child edge is cut when
    [|w|² · s(child) < threshold], where [s] is the subtree's squared
    norm ({!Pkg.subtree_norm2}); the state is renormalised afterwards. *)

(** [prune mgr edge ~threshold] — rebuilt, renormalised edge.
    [threshold = 0.] reproduces the input exactly (hash-consing makes it
    physically equal). *)
val prune : Pkg.t -> Pkg.edge -> threshold:float -> Pkg.edge

(** [prune_state st ~threshold] — apply to a simulation state in place;
    returns the fidelity [|⟨ψ|ψ'⟩|²] between the old and new states. *)
val prune_state : Sim.state -> threshold:float -> float
