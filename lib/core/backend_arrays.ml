(* Backend adapter: dense state-vector simulation (Section II).  A
   session keeps the last statevector (state buffer + grown scratch) and
   reuses it via [Sv.reset] when the next job has the same qubit count,
   so repeated jobs stop paying the 2^n allocation. *)

module Circuit = Qdt_circuit.Circuit
module Sv = Qdt_arraysim.Statevector

let ( let* ) r f = Result.bind r f

module Session = struct
  let name = "arrays"

  let capabilities =
    {
      Backend.full_state = true;
      amplitude = true;
      sample = true;
      expectation_z = true;
      supports_nonunitary = true;
      clifford_only = false;
      max_qubits = Some Backend.max_dense_qubits;
      dynamic = true;
    }

  type t = {
    label : string option;
    mutable closed : bool;
    mutable sv : Sv.t option;  (** reused when the qubit count matches *)
  }

  let create ?label () = { label; closed = false; sv = None }
  let close t = t.closed <- true

  let acquire t n =
    match t.sv with
    | Some sv when Sv.num_qubits sv = n ->
        Sv.reset sv;
        sv
    | _ ->
        let sv = Sv.create n in
        t.sv <- Some sv;
        sv

  (* The per-job run: identical to [Sv.run] except the statevector comes
     from [acquire], so warm and cold sessions see the same RNG stream,
     the same instruction walk, and bit-identical amplitudes. *)
  let run_in t ~seed c =
    let sv = acquire t (Circuit.num_qubits c) in
    let rng = Random.State.make [| seed |] in
    let clbits = Array.make (max 1 (Circuit.num_clbits c)) 0 in
    List.iter
      (fun instr -> Sv.apply_instruction sv instr ~rng ~clbits)
      (Circuit.instructions c);
    (sv, clbits)

  (* One shot of a dynamic circuit: fresh state, live classical register.
     Deliberately not on the session buffer — shots parallelise across
     domains, so each builds its own statevector.  The counts key is the
     creg when the circuit measures, else a terminal measurement of
     every qubit. *)
  let run_shot c ~rng =
    let sv = Sv.create (Circuit.num_qubits c) in
    let clbits = Array.make (max 1 (Circuit.num_clbits c)) 0 in
    List.iter
      (fun instr -> Sv.apply_instruction sv instr ~rng ~clbits)
      (Circuit.instructions c);
    if Circuit.has_measure c then Circuit.creg_value clbits
    else begin
      let key = ref 0 in
      for q = 0 to Circuit.num_qubits c - 1 do
        key := !key lor (Sv.measure_qubit sv ~rng q lsl q)
      done;
      !key
    end

  let submit t c job =
    if t.closed then Backend.session_closed ~backend:name job
    else
      let* () = Backend.admit ~name ~caps:capabilities c job in
      Ok
        (Backend.timed ~name ~prefix:"arrays" ?session:t.label job (fun () ->
             match job with
             | Job.Full_state -> Job.State (Sv.to_vec (fst (run_in t ~seed:0 c)))
             | Job.Amplitude k -> Job.Amplitude_of (Sv.amplitude (fst (run_in t ~seed:0 c)) k)
             | Job.Sample { seed; shots } ->
                 Job.Counts
                   (match Shot_engine.plan c with
                   | Shot_engine.Static_unitary ->
                       let state, _clbits = run_in t ~seed c in
                       Sv.sample ~seed:(seed + 1) state ~shots
                   | Shot_engine.Static_final { unitary; map } ->
                       let state, _clbits = run_in t ~seed unitary in
                       Shot_engine.remap_counts ~map (Sv.sample ~seed:(seed + 1) state ~shots)
                   | Shot_engine.Dynamic ->
                       (* [run_shot] builds a fresh statevector per shot, so it
                          is reentrant and the shots parallelise across domains. *)
                       Shot_engine.sample_per_shot_parallel ~seed ~shots
                         ~run_shot:(run_shot c))
             | Job.Expectation_z { seed; qubit } ->
                 Job.Expectation (Sv.expectation_z (fst (run_in t ~seed c)) qubit)))
end
