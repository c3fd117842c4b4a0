(* Quickstart: the paper's running example — the Bell state — carried
   through all four data structures (Figs. 1–3, Examples 1–5).

   Run with: dune exec examples/quickstart.exe *)

module Circuit = Qdt.Circuit.Circuit
module Generators = Qdt.Circuit.Generators
module Vec = Qdt.Linalg.Vec
module Cx = Qdt.Linalg.Cx

let section title =
  Printf.printf "\n=== %s ===\n" title

let () =
  let bell = Generators.bell in
  section "The Bell circuit (H on q1, then CNOT q1 -> q0)";
  print_string (Qdt.Circuit.Draw.render bell);

  (* -------------------------------------------------------------- *)
  section "1. Arrays (Section II, Example 1)";
  let sv = Qdt.Arrays.Statevector.run_unitary bell in
  Printf.printf "state vector (2^2 = 4 amplitudes, %d bytes):\n"
    (Qdt.Arrays.Statevector.memory_bytes sv);
  Vec.iteri
    (fun k amp -> Printf.printf "  alpha_%02d = %s\n" k (Cx.to_string amp))
    (Qdt.Arrays.Statevector.to_vec sv);
  Printf.printf "measuring returns |00> or |11>, each with probability %.2f\n"
    (Qdt.Arrays.Statevector.probability sv 0);

  (* -------------------------------------------------------------- *)
  section "2. Decision diagrams (Section III, Fig. 1)";
  let dd = Qdt.Dd.Sim.run_unitary bell in
  Printf.printf "the same state as a DD: %d nodes (vs %d amplitudes)\n"
    (Qdt.Dd.Sim.node_count dd) 4;
  Printf.printf "amplitude of |00> reconstructed from edge weights: %s\n"
    (Cx.to_string (Qdt.Dd.Sim.amplitude dd 0));
  Printf.printf "Graphviz DOT of the diagram (Fig. 1b):\n%s"
    (Qdt.Dd.Export.to_dot (Qdt.Dd.Sim.manager dd) (Qdt.Dd.Sim.root dd));

  (* -------------------------------------------------------------- *)
  section "3. Tensor networks (Section IV, Fig. 2, Examples 3-4)";
  let tn = Qdt.Tensornet.Circuit_tn.of_circuit bell in
  Printf.printf "network of %d tensors, %d bytes (linear in gates)\n"
    (Qdt.Tensornet.Network.tensor_count (Qdt.Tensornet.Circuit_tn.network tn))
    (Qdt.Tensornet.Circuit_tn.memory_bytes tn);
  let amp00, stats = Qdt.Tensornet.Circuit_tn.amplitude tn 0 in
  Printf.printf "single amplitude <00|C|00> by adding output 'bubbles': %s\n"
    (Cx.to_string amp00);
  Printf.printf "  (%d scalar multiplications, peak tensor size %d)\n"
    stats.Qdt.Tensornet.Network.multiplications stats.Qdt.Tensornet.Network.peak_tensor_size;

  (* -------------------------------------------------------------- *)
  section "4. ZX-calculus (Section V, Fig. 3, Example 5)";
  let d = Qdt.Zx.Translate.of_circuit bell in
  Printf.printf "Bell circuit as a ZX-diagram: %d spiders, %d edges\n"
    (List.length (Qdt.Zx.Diagram.spiders d))
    (Qdt.Zx.Diagram.num_edges d);
  let report = Qdt.Zx.Simplify.full_reduce d in
  Printf.printf "after graph-like conversion + simplification: %d spiders (%d fusions)\n"
    (List.length (Qdt.Zx.Diagram.spiders d))
    report.Qdt.Zx.Simplify.fusions;
  let equal = Qdt.Verify.Equiv.zx bell bell in
  Printf.printf "ZX equivalence check of the circuit against itself: %s\n"
    (Qdt.Verify.Equiv.verdict_to_string equal);

  (* -------------------------------------------------------------- *)
  section "Every registered backend that can build the state agrees";
  List.iter
    (fun ((module S : Qdt.Backend.SESSION) as engine) ->
      match Qdt.Backend.run_once engine bell Qdt.Job.Full_state with
      | Ok (Qdt.Job.State state, stats) ->
          Printf.printf "  %-18s alpha_00 = %-22s (%.1f us)\n" S.name
            (Cx.to_string (Vec.get state 0))
            (1e6 *. stats.Qdt.Backend.wall_s)
      | Ok _ -> assert false (* a Full_state job always returns a State *)
      | Error e -> Printf.printf "  %-18s %s\n" S.name (Qdt.Backend.error_to_string e))
    (Qdt.Registry.all ())
