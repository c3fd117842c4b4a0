(* Backend adapter: matrix-product-state simulation (Section IV).  Gates
   beyond two qubits are lowered first (as the seed's MPS arm did); the
   telemetry reports the run's maximal bond dimension and accumulated
   truncation error.  The session wrapper is stateless: an MPS is built
   per job (bond dimensions are circuit-shaped, so there is no buffer
   worth caching), the session carries only its liveness. *)

module Decompose = Qdt_compile.Decompose
module Mps = Qdt_tensornet.Mps

let ( let* ) r f = Result.bind r f

module Session = struct
  let name = "mps"

  let capabilities =
    {
      Backend.full_state = true;
      amplitude = true;
      sample = true;
      expectation_z = true;
      supports_nonunitary = false;
      clifford_only = false;
      max_qubits = None;
      dynamic = false;
    }

  type t = { mutable closed : bool }

  let create () = { closed = false }
  let close t = t.closed <- true
  let run c = Mps.run (Decompose.lower ~basis:Decompose.Two_qubit c)

  let submit t c job =
    let* () = Backend.admit ~closed:t.closed ~name ~caps:capabilities c job in
    let (mps, payload), stats =
      Backend.timed ~name ~prefix:"mps" job (fun () ->
          let mps = run c in
          ( mps,
            match job with
            | Job.Full_state -> Job.State (Mps.to_vec mps)
            | Job.Amplitude k -> Job.Amplitude_of (Mps.amplitude mps k)
            | Job.Sample { seed; shots } -> Job.Counts (Mps.sample ~seed:(seed + 1) mps ~shots)
            | Job.Expectation_z { seed = _; qubit } ->
                Job.Expectation (Mps.expectation_z mps qubit) ))
    in
    let values =
      [
        ("mps.max_bond_dim", float_of_int (Mps.max_bond_dim mps));
        ("mps.truncation_error", Mps.truncation_error mps);
      ]
    in
    Ok (payload, { stats with Backend.values })
end
