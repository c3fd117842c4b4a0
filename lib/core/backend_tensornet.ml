(* Backend adapter: full tensor-network contraction (Section IV).  Computes
   single quantities by contraction; no sampling, no measurements.  The
   session wrapper is stateless: a network is built and contracted per
   job, the session carries only the label and liveness. *)

module Tn = Qdt_tensornet.Circuit_tn

let ( let* ) r f = Result.bind r f

module Session = struct
  let name = "tensor-network"

  (* Full-state contraction materialises 2^n outputs; keep the dense limit. *)
  let capabilities =
    {
      Backend.full_state = true;
      amplitude = true;
      sample = false;
      expectation_z = true;
      supports_nonunitary = false;
      clifford_only = false;
      max_qubits = Some Backend.max_dense_qubits;
      dynamic = false;
    }

  type t = { label : string option; mutable closed : bool }

  let create ?label () = { label; closed = false }
  let close t = t.closed <- true
  let stats m = Backend.base_stats name m

  let submit t c job =
    if t.closed then Backend.session_closed ~backend:name job
    else
      let* () = Backend.admit ~name ~caps:capabilities c job in
      let session = t.label in
      match job with
      | Job.Full_state ->
          let (state, _contraction), m =
            Backend.timed ~span:"tn.simulate" ?session (fun () ->
                Tn.statevector (Tn.of_circuit c))
          in
          Ok (Job.State state, stats m)
      | Job.Amplitude k ->
          let (amp, _contraction), m =
            Backend.timed ~span:"tn.amplitude" ?session (fun () ->
                Tn.amplitude (Tn.of_circuit c) k)
          in
          Ok (Job.Amplitude_of amp, stats m)
      | Job.Sample _ ->
          (* declined by [admit]: contraction yields single quantities *)
          assert false
      | Job.Expectation_z { seed = _; qubit } ->
          let (v, _contraction), m =
            Backend.timed ~span:"tn.expectation-z" ?session (fun () ->
                Tn.expectation_z c qubit)
          in
          Ok (Job.Expectation v, stats m)
end
