(* Portfolio dispatch: the complementarity argument of the paper made
   executable.  The Auto backend inspects each circuit (Clifford-ness,
   two-qubit-gate locality, T-count, width) and routes it to the data
   structure the Guidelines-paper heuristics favour, reporting the choice
   and the unified telemetry record.

   Run with: dune exec examples/portfolio.exe *)

module Circuit = Qdt.Circuit.Circuit
module Generators = Qdt.Circuit.Generators

let nn_chain n =
  let c = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    c := Circuit.ry 0.3 q !c
  done;
  for q = 0 to n - 2 do
    c := Circuit.cx q (q + 1) !c
  done;
  !c

let workloads =
  [
    ("pure Clifford, 50 qubits", Generators.random_clifford ~seed:7 ~gates:250 50);
    ("nearest-neighbour chain, 16 qubits", nn_chain 16);
    ("Clifford+T (t-fraction 0.3), 5 qubits",
     Generators.random_clifford_t ~seed:7 ~gates:100 ~t_fraction:0.3 5);
    ("QFT, 10 qubits", Generators.qft 10);
    ("GHZ, 20 qubits", Generators.ghz 20);
  ]

let () =
  let auto = Option.get (Qdt.Registry.find_session "auto") in
  print_endline "Auto-dispatch: 1000 shots per workload through the portfolio backend";
  List.iter
    (fun (name, c) ->
      Printf.printf "\n%s\n" name;
      match Qdt.Backend.run_once auto c (Qdt.Job.Sample { seed = 1; shots = 1000 }) with
      | Ok (Qdt.Job.Counts counts, stats) ->
          Printf.printf "  distinct outcomes: %d\n" (List.length counts);
          Printf.printf "  %s\n" (Qdt.Backend.stats_to_string stats)
      | Ok _ -> assert false (* a Sample job always returns Counts *)
      | Error e -> Printf.printf "  %s\n" (Qdt.Backend.error_to_string e))
    workloads;

  print_endline "\nCapability matrix (what the dispatcher filters on):";
  List.iter
    (fun (module S : Qdt.Backend.SESSION) ->
      let c = S.capabilities in
      Printf.printf "  %-18s state=%b amp=%b sample=%b <Z>=%b measure=%b%s\n" S.name
        c.Qdt.Backend.full_state c.Qdt.Backend.amplitude c.Qdt.Backend.sample
        c.Qdt.Backend.expectation_z c.Qdt.Backend.supports_nonunitary
        (if c.Qdt.Backend.clifford_only then " (Clifford only)" else ""))
    (Qdt.Registry.all ())
