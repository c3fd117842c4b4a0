(* Backend adapter: matrix-product-state simulation (Section IV).  Gates
   beyond two qubits are lowered first (as the seed's MPS arm did); the
   telemetry reports the run's maximal bond dimension and accumulated
   truncation error.  The session wrapper is stateless: an MPS is built
   per job (bond dimensions are circuit-shaped, so there is no buffer
   worth caching), the session carries only the label and liveness. *)

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

  type t = { label : string option; mutable closed : bool }

  let create ?label () = { label; closed = false }
  let close t = t.closed <- true
  let run c = Mps.run (Decompose.lower ~basis:Decompose.Two_qubit c)

  let stats_of m mps =
    {
      (Backend.base_stats name m) with
      Backend.mps =
        Some
          {
            Backend.max_bond_dim = Mps.max_bond_dim mps;
            truncation_error = Mps.truncation_error mps;
          };
    }

  let submit t c job =
    if t.closed then Backend.session_closed ~backend:name job
    else
      let* () = Backend.admit ~name ~caps:capabilities c job in
      let session = t.label in
      match job with
      | Job.Full_state ->
          let (mps, state), m =
            Backend.timed ~span:"mps.simulate" ?session (fun () ->
                let mps = run c in
                (mps, Mps.to_vec mps))
          in
          Ok (Job.State state, stats_of m mps)
      | Job.Amplitude k ->
          let (mps, amp), m =
            Backend.timed ~span:"mps.amplitude" ?session (fun () ->
                let mps = run c in
                (mps, Mps.amplitude mps k))
          in
          Ok (Job.Amplitude_of amp, stats_of m mps)
      | Job.Sample { seed; shots } ->
          let (mps, counts), m =
            Backend.timed ~span:"mps.sample" ?session (fun () ->
                let mps = run c in
                (mps, Mps.sample ~seed:(seed + 1) mps ~shots))
          in
          Ok (Job.Counts counts, stats_of m mps)
      | Job.Expectation_z { seed = _; qubit } ->
          let (mps, v), m =
            Backend.timed ~span:"mps.expectation-z" ?session (fun () ->
                let mps = run c in
                (mps, Mps.expectation_z mps qubit))
          in
          Ok (Job.Expectation v, stats_of m mps)
end
