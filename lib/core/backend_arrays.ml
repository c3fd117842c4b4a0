(* Backend adapter: dense state-vector simulation (Section II).  A
   session keeps the last statevector (state buffer + grown scratch) and
   reuses it via [Sv.reset] when the next job has the same qubit count,
   so repeated jobs stop paying the 2^n allocation. *)

module Circuit = Qdt_circuit.Circuit
module Sv = Qdt_arraysim.Statevector
module Fusion = Qdt_arraysim.Fusion

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
    mutable closed : bool;
    mutable sv : Sv.t option;  (** reused when the qubit count matches *)
  }

  let create () = { closed = false; sv = None }
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

  (* The per-job run on the statevector from [acquire]: a unitary-only
     circuit runs its fused plan, anything else [Sv.run]'s walk, so warm
     and cold sessions see the same RNG stream and bit-identical
     amplitudes. *)
  let run_in t ~seed c =
    let sv = acquire t (Circuit.num_qubits c) in
    if Circuit.is_unitary_only c then Fusion.run sv (Fusion.plan c)
    else
      ignore (Circuit.execute c ~rng:(Random.State.make [| seed |]) (Sv.apply_instruction sv));
    sv

  (* One shot of a dynamic circuit: fresh state, live classical register.
     Deliberately not on the session buffer — shots parallelise across
     domains, so each builds its own statevector. *)
  let run_shot c ~rng =
    let sv = Sv.create (Circuit.num_qubits c) in
    let clbits = Circuit.execute c ~rng (Sv.apply_instruction sv) in
    Shot_engine.shot_key c clbits ~measure:(Sv.measure_qubit sv ~rng)

  let submit t c job =
    let* () = Backend.admit ~closed:t.closed ~name ~caps:capabilities c job in
    Ok
      (Backend.timed ~name ~prefix:"arrays" job (fun () ->
           match job with
           | Job.Full_state -> Job.State (Sv.to_vec (run_in t ~seed:0 c))
           | Job.Amplitude k -> Job.Amplitude_of (Sv.amplitude (run_in t ~seed:0 c) k)
           | Job.Sample { seed; shots } ->
               Job.Counts
                 (match Shot_engine.plan c with
                 | Shot_engine.Static_unitary ->
                     Sv.sample ~seed:(seed + 1) (run_in t ~seed c) ~shots
                 | Shot_engine.Static_final { unitary; map } ->
                     Shot_engine.remap_counts ~map
                       (Sv.sample ~seed:(seed + 1) (run_in t ~seed unitary) ~shots)
                 | Shot_engine.Dynamic ->
                     (* [run_shot] builds a fresh statevector per shot, so it
                        is reentrant and the shots parallelise across domains. *)
                     Shot_engine.sample_per_shot_parallel ~seed ~shots
                       ~run_shot:(run_shot c))
           | Job.Expectation_z { seed; qubit } ->
               Job.Expectation (Sv.expectation_z (run_in t ~seed c) qubit)))
end
