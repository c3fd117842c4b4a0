(* Backend adapter: Aaronson–Gottesman stabilizer tableau (ref [11]).
   Clifford circuits only; no amplitude access, but thousands of qubits.
   A session keeps the last tableau and reuses its row allocations via
   [Tableau.reset] when the next job has the same qubit count. *)

module Circuit = Qdt_circuit.Circuit
module Tableau = Qdt_stabilizer.Tableau

let ( let* ) r f = Result.bind r f
let p_tableau = Qdt_obs.Metrics.peak "stabilizer.peak_tableau_bytes"

module Session = struct
  let name = "stabilizer"

  let capabilities =
    {
      Backend.full_state = false;
      amplitude = false;
      sample = true;
      expectation_z = true;
      supports_nonunitary = true;
      clifford_only = true;
      max_qubits = None;
      dynamic = true;
    }

  type t = {
    mutable closed : bool;
    mutable tab : Tableau.t option;  (** reused when the qubit count matches *)
  }

  let create () = { closed = false; tab = None }
  let close t = t.closed <- true

  let acquire t n =
    match t.tab with
    | Some tab when Tableau.num_qubits tab = n ->
        Tableau.reset tab;
        tab
    | _ ->
        let tab = Tableau.create n in
        t.tab <- Some tab;
        tab

  (* [Tableau.run]'s walk on the tableau from [acquire], so warm and
     cold sessions see the same RNG stream and outcomes. *)
  let run_in t ~seed c =
    let tab = acquire t (Circuit.num_qubits c) in
    ignore
      (Circuit.execute c ~rng:(Random.State.make [| seed |]) (Tableau.apply_instruction tab));
    tab

  (* One shot of a dynamic circuit on a fresh tableau. *)
  let run_shot c ~rng =
    let tab = Tableau.create (Circuit.num_qubits c) in
    let clbits = Circuit.execute c ~rng (Tableau.apply_instruction tab) in
    Shot_engine.shot_key c clbits ~measure:(Tableau.measure tab ~rng)

  let submit t c job =
    let* () = Backend.admit ~closed:t.closed ~name ~caps:capabilities c job in
    let (tab, payload), stats =
      Backend.timed ~name ~prefix:"stabilizer" job (fun () ->
          match job with
          | Job.Full_state | Job.Amplitude _ ->
              (* declined by [admit]: tableaus have no amplitude access *)
              assert false
          | Job.Sample { seed; shots } -> (
              match Shot_engine.plan c with
              | Shot_engine.Static_unitary ->
                  let tab = run_in t ~seed c in
                  (tab, Job.Counts (Tableau.sample ~seed:(seed + 1) tab ~shots))
              | Shot_engine.Static_final { unitary; map } ->
                  let tab = run_in t ~seed unitary in
                  ( tab,
                    Job.Counts
                      (Shot_engine.remap_counts ~map
                         (Tableau.sample ~seed:(seed + 1) tab ~shots)) )
              | Shot_engine.Dynamic ->
                  (* [run_shot] builds a fresh tableau per shot — reentrant,
                     so the shots parallelise across domains.  Stats only
                     need the tableau footprint, which depends on the qubit
                     count alone, so an [acquire]d tableau stands in for
                     "the last shot's" (a cross-domain [last] ref would
                     race). *)
                  let counts =
                    Shot_engine.sample_per_shot_parallel ~seed ~shots ~run_shot:(run_shot c)
                  in
                  (acquire t (Circuit.num_qubits c), Job.Counts counts))
          | Job.Expectation_z { seed; qubit } ->
              let tab = run_in t ~seed c in
              (tab, Job.Expectation (Float.of_int (Tableau.expectation_z tab qubit))))
    in
    let bytes = Tableau.memory_bytes tab in
    Qdt_obs.Metrics.raise_to_int p_tableau bytes;
    Ok (payload, { stats with Backend.values = [ ("tableau_bytes", float_of_int bytes) ] })
end
