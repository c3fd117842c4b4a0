(* Backend adapter: full tensor-network contraction (Section IV).  Computes
   single quantities by contraction; no sampling, no measurements.  The
   session wrapper is stateless: a network is built and contracted per
   job, the session carries only its liveness. *)

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

  type t = { mutable closed : bool }

  let create () = { closed = false }
  let close t = t.closed <- true

  let submit t c job =
    let* () = Backend.admit ~closed:t.closed ~name ~caps:capabilities c job in
    Ok
      (Backend.timed ~name ~prefix:"tn" job (fun () ->
           match job with
           | Job.Full_state -> Job.State (fst (Tn.statevector (Tn.of_circuit c)))
           | Job.Amplitude k -> Job.Amplitude_of (fst (Tn.amplitude (Tn.of_circuit c) k))
           | Job.Sample _ ->
               (* declined by [admit]: contraction yields single quantities *)
               assert false
           | Job.Expectation_z { seed = _; qubit } ->
               Job.Expectation (fst (Tn.expectation_z c qubit))))
end
