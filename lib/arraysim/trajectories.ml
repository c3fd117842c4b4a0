open Qdt_circuit

type noise_model = { channel : unit -> Density.channel; label : string }

let depolarizing p = { channel = (fun () -> Density.depolarizing p); label = "depolarizing" }

let amplitude_damping gamma =
  { channel = (fun () -> Density.amplitude_damping gamma); label = "amplitude-damping" }

let phase_damping lambda =
  { channel = (fun () -> Density.phase_damping lambda); label = "phase-damping" }

let bit_flip p = { channel = (fun () -> Density.bit_flip p); label = "bit-flip" }

let apply_channel_stochastic sv ch q ~rng =
  (* Branch weights ‖K_i|ψ⟩‖² (they sum to 1 for a CPTP channel), computed
     by {!Statevector.kraus_weight} without copying the state.  Only the
     chosen Kraus operator is then applied, in place — the old
     copy-per-branch scheme allocated [|ch|] full statevectors per
     instruction qubit. *)
  if ch = [] then invalid_arg "Trajectories: empty channel";
  let weights = List.map (fun k -> (k, Statevector.kraus_weight sv k ~target:q)) ch in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
  let r = Random.State.float rng total in
  let rec pick acc = function
    | [] -> assert false
    | [ (k, w) ] -> (k, w)
    | (k, w) :: rest -> if acc +. w >= r then (k, w) else pick (acc +. w) rest
  in
  let chosen, w = pick 0.0 weights in
  if w < 1e-28 then invalid_arg "Trajectories: zero-probability branch chosen";
  Statevector.apply_matrix sv chosen ~controls:[] ~target:q;
  Statevector.renormalise sv

let run_single ?(seed = 0) ~noise circuit =
  let sv = Statevector.create (Circuit.num_qubits circuit) in
  let noisy_step instr ~rng ~clbits =
    Statevector.apply_instruction sv instr ~rng ~clbits;
    match instr with
    | Circuit.Barrier _ -> ()
    | _ ->
        List.iter
          (fun q -> apply_channel_stochastic sv (noise.channel ()) q ~rng)
          (Circuit.qubits_of_instruction instr)
  in
  ignore (Circuit.execute circuit ~rng:(Random.State.make [| seed; 77 |]) noisy_step);
  sv

(* Trajectory-level parallelism.  Each trajectory's RNG stream is derived
   from [seed + t] alone, so trajectories are independent of execution
   order.  At jobs = 1 the legacy sequential accumulation runs —
   bit-identical to the pre-parallel code.  At jobs >= 2 the trajectory
   range splits into [traj_blocks] blocks (a fixed count, independent of
   the job count); each block accumulates serially and the block results
   fold in block order, so the averages are identical at any job count
   >= 2.  The statevector kernels inside each trajectory fall back to
   serial automatically (nested-region guard in [Qdt_par]). *)
let traj_blocks = 16

let block_bounds ~trajectories b =
  (b * trajectories / traj_blocks, (b + 1) * trajectories / traj_blocks)

let average_probabilities ?(seed = 0) ~noise ~trajectories circuit =
  if trajectories < 1 then invalid_arg "Trajectories: need at least one trajectory";
  let dim = 1 lsl Circuit.num_qubits circuit in
  let accumulate acc t0 t1 =
    for t = t0 to t1 - 1 do
      let sv = run_single ~seed:(seed + t) ~noise circuit in
      let probs = Statevector.probabilities sv in
      Array.iteri (fun k p -> acc.(k) <- acc.(k) +. p) probs
    done;
    acc
  in
  let acc =
    if Qdt_par.jobs () <= 1 || trajectories < 2 then
      accumulate (Array.make dim 0.0) 0 trajectories
    else begin
      let blocks =
        Qdt_par.map
          (fun b ->
            let t0, t1 = block_bounds ~trajectories b in
            accumulate (Array.make dim 0.0) t0 t1)
          (Array.init traj_blocks Fun.id)
      in
      let acc = Array.make dim 0.0 in
      Array.iter
        (fun blk -> Array.iteri (fun k p -> acc.(k) <- acc.(k) +. p) blk)
        blocks;
      acc
    end
  in
  Array.map (fun p -> p /. Float.of_int trajectories) acc

let average_fidelity ?(seed = 0) ~noise ~trajectories circuit =
  if trajectories < 1 then invalid_arg "Trajectories: need at least one trajectory";
  let ideal = Statevector.run_unitary circuit in
  let accumulate t0 t1 =
    let acc = ref 0.0 in
    for t = t0 to t1 - 1 do
      let sv = run_single ~seed:(seed + t) ~noise circuit in
      acc := !acc +. Statevector.fidelity ideal sv
    done;
    !acc
  in
  let total =
    if Qdt_par.jobs () <= 1 || trajectories < 2 then accumulate 0 trajectories
    else
      Qdt_par.map
        (fun b ->
          let t0, t1 = block_bounds ~trajectories b in
          accumulate t0 t1)
        (Array.init traj_blocks Fun.id)
      |> Array.fold_left ( +. ) 0.0
  in
  total /. Float.of_int trajectories
