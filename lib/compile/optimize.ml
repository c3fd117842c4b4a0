open Qdt_circuit

type stats = { removed : int; merged : int }

let same_support controls1 controls2 =
  List.sort compare controls1 = List.sort compare controls2

let two_pi = 2.0 *. Float.pi

let angle_is_trivial a =
  let m = Float.rem (Float.abs a) two_pi in
  m < 1e-12 || two_pi -. m < 1e-12

(* Diagonal single-qubit phase family: gate -> phase angle of |1⟩ (Rz up to
   global phase). *)
let diag_angle = function
  | Gate.I -> Some 0.0
  | Gate.Z -> Some Float.pi
  | Gate.S -> Some (Float.pi /. 2.0)
  | Gate.Sdg -> Some (-.Float.pi /. 2.0)
  | Gate.T -> Some (Float.pi /. 4.0)
  | Gate.Tdg -> Some (-.Float.pi /. 4.0)
  | Gate.Phase theta -> Some theta
  | Gate.Rz theta -> Some theta
  | Gate.X | Gate.Y | Gate.H | Gate.Sx | Gate.Sxdg | Gate.Rx _ | Gate.Ry _
  | Gate.U3 _ ->
      None

(* T-like gates: non-Clifford diagonal rotations however they are spelled. *)
let non_clifford_count c =
  List.fold_left
    (fun acc instr ->
      match instr with
      | Circuit.Apply { gate; _ } -> (
          match diag_angle gate with
          | Some theta ->
              let r = theta /. (Float.pi /. 2.0) in
              if Float.abs (r -. Float.round r) < 1e-9 then acc else acc + 1
          | None -> acc)
      | _ -> acc)
    0 (Circuit.instructions c)

let gates_inverse a b =
  match (a, b) with
  | Gate.X, Gate.X | Gate.Y, Gate.Y | Gate.Z, Gate.Z | Gate.H, Gate.H
  | Gate.S, Gate.Sdg | Gate.Sdg, Gate.S | Gate.T, Gate.Tdg | Gate.Tdg, Gate.T
  | Gate.Sx, Gate.Sxdg | Gate.Sxdg, Gate.Sx | Gate.I, Gate.I ->
      true
  | Gate.Rx x, Gate.Rx y | Gate.Ry x, Gate.Ry y | Gate.Rz x, Gate.Rz y
  | Gate.Phase x, Gate.Phase y ->
      angle_is_trivial (x +. y)
  | _ -> false

let instructions_inverse a b =
  match (a, b) with
  | Circuit.Apply x, Circuit.Apply y ->
      x.target = y.target && same_support x.controls y.controls
      && gates_inverse x.gate y.gate
  | Circuit.Swap x, Circuit.Swap y ->
      same_support x.controls y.controls
      && ((x.a = y.a && x.b = y.b) || (x.a = y.b && x.b = y.a))
  | _ -> false

type action = Keep | Cancel | Replace of Circuit.instruction

(* Single left-to-right pass with per-qubit stacks of live instruction
   indices; cancelling exposes earlier instructions, so cascades like
   [CX; H; H; CX] vanish in one pass. *)
let scan combine circuit =
  let instrs = Array.of_list (Circuit.instructions circuit) in
  let live = Array.map (fun i -> Some i) instrs in
  let n = Circuit.num_qubits circuit in
  let stacks = Array.make n [] in
  let removed = ref 0 and merged = ref 0 in
  let push idx qs = List.iter (fun q -> stacks.(q) <- idx :: stacks.(q)) qs in
  let pop qs =
    List.iter
      (fun q ->
        match stacks.(q) with [] -> assert false | _ :: rest -> stacks.(q) <- rest)
      qs
  in
  Array.iteri
    (fun idx instr ->
      match instr with
      | Circuit.Barrier _ ->
          for q = 0 to n - 1 do
            stacks.(q) <- []
          done
      | Circuit.Measure _ | Circuit.Reset _ | Circuit.If _ ->
          List.iter (fun q -> stacks.(q) <- []) (Circuit.qubits_of_instruction instr)
      | Circuit.Apply { gate = Gate.I; _ } ->
          live.(idx) <- None;
          incr removed
      | Circuit.Apply _ | Circuit.Swap _ -> (
          let qs = Circuit.qubits_of_instruction instr in
          let sorted = List.sort compare qs in
          let candidate =
            match sorted with
            | [] -> None
            | q0 :: rest -> (
                match stacks.(q0) with
                | [] -> None
                | j :: _ ->
                    if
                      List.for_all
                        (fun q ->
                          match stacks.(q) with j' :: _ -> j' = j | [] -> false)
                        rest
                    then
                      match live.(j) with
                      | Some p
                        when List.sort compare (Circuit.qubits_of_instruction p) = sorted ->
                          Some (j, p)
                      | _ -> None
                    else None)
          in
          match candidate with
          | Some (j, p) -> (
              match combine p instr with
              | Cancel ->
                  live.(j) <- None;
                  live.(idx) <- None;
                  removed := !removed + 2;
                  pop qs
              | Replace replacement ->
                  live.(j) <- Some replacement;
                  live.(idx) <- None;
                  incr merged
              | Keep -> push idx qs)
          | None -> push idx qs))
    instrs;
  let out = Array.to_list live |> List.filter_map (fun x -> x) in
  let rebuilt =
    List.fold_left
      (fun acc i -> Circuit.add i acc)
      (Circuit.empty ~clbits:(Circuit.num_clbits circuit) (Circuit.num_qubits circuit))
      out
  in
  (rebuilt, { removed = !removed; merged = !merged })

let cancel_inverses circuit =
  scan (fun prev cur -> if instructions_inverse prev cur then Cancel else Keep) circuit

let merge_rotations circuit =
  scan
    (fun prev cur ->
      match (prev, cur) with
      | Circuit.Apply p, Circuit.Apply c
        when p.target = c.target && same_support p.controls c.controls -> (
          match (diag_angle p.gate, diag_angle c.gate) with
          | Some a, Some b ->
              let total = a +. b in
              if angle_is_trivial total then Cancel
              else
                Replace
                  (Circuit.Apply
                     { gate = Gate.Phase total; controls = p.controls; target = p.target })
          | _ -> (
              match (p.gate, c.gate) with
              | Gate.Rx a, Gate.Rx b ->
                  if angle_is_trivial (a +. b) then Cancel
                  else
                    Replace
                      (Circuit.Apply
                         { gate = Gate.Rx (a +. b); controls = p.controls; target = p.target })
              | Gate.Ry a, Gate.Ry b ->
                  if angle_is_trivial (a +. b) then Cancel
                  else
                    Replace
                      (Circuit.Apply
                         { gate = Gate.Ry (a +. b); controls = p.controls; target = p.target })
              | _ -> Keep))
      | _ -> Keep)
    circuit

let m_removed = Qdt_obs.Metrics.counter "compile.gates_removed"
let m_merged = Qdt_obs.Metrics.counter "compile.gates_merged"

let optimize circuit =
  Qdt_obs.Trace.with_span "compile.peephole" @@ fun () ->
  let rec loop c acc_removed acc_merged rounds =
    if rounds = 0 then (c, { removed = acc_removed; merged = acc_merged })
    else
      let c1, s1 = cancel_inverses c in
      let c2, s2 = merge_rotations c1 in
      if s1.removed + s1.merged + s2.removed + s2.merged = 0 then
        (c2, { removed = acc_removed; merged = acc_merged })
      else
        loop c2
          (acc_removed + s1.removed + s2.removed)
          (acc_merged + s1.merged + s2.merged)
          (rounds - 1)
  in
  let optimized, stats = loop circuit 0 0 20 in
  Qdt_obs.Metrics.add m_removed stats.removed;
  Qdt_obs.Metrics.add m_merged stats.merged;
  (optimized, stats)
