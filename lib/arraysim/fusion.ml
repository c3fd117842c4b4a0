open Qdt_linalg
open Qdt_circuit

type op =
  | Apply of { m : Mat.t; controls : int list; target : int }
  | Swap of { controls : int list; a : int; b : int }
  | Block of { m : Mat.t; q0 : int; q1 : int }

type t = { num_qubits : int; ops : op array; gates : int }

let passes t = Array.length t.ops
let gates t = t.gates

(* Pass costs in tenths of a general 2×2 pass, measured on a 16-qubit
   state at one job (medians of five interleaved rounds over all 16
   targets): a dense 4×4 pass costs about 1.9 of them, a diagonal or
   anti-diagonal 2×2 (the kernel's fast paths) about 0.7, and a
   one-control gate or a swap about 0.3 (they visit a quarter of the
   amplitudes).  So a 4×4 pays off only when it replaces more than
   that: QFT's controlled phase plus one Hadamard (1.3) runs faster as
   two passes. *)
let cost_4x4 = 19
let cost_two_qubit = 3

let cost_2x2 m =
  let u = Mat.buffer m in
  let zero i = u.(i) = 0.0 && u.(i + 1) = 0.0 in
  if (zero 2 && zero 4) || (zero 0 && zero 6) then 7 else 10

(* [mul2 a b] — the 2×2 product a·b, fresh. *)
let mul2 a b =
  let a = Mat.buffer a and b = Mat.buffer b in
  let p = Array.make 8 0.0 in
  for i = 0 to 1 do
    for j = 0 to 1 do
      let x = 4 * i and y = 2 * j in
      let a0r = a.(x) and a0i = a.(x + 1) and a1r = a.(x + 2) and a1i = a.(x + 3) in
      let b0r = b.(y) and b0i = b.(y + 1) and b1r = b.(y + 4) and b1i = b.(y + 5) in
      p.(x + y) <- (a0r *. b0r) -. (a0i *. b0i) +. ((a1r *. b1r) -. (a1i *. b1i));
      p.(x + y + 1) <- (a0r *. b0i) +. (a0i *. b0r) +. ((a1r *. b1i) +. (a1i *. b1r))
    done
  done;
  Mat.of_buffer ~rows:2 ~cols:2 p

(* Rows [r0], [r1] of the 4×4 buffer [m] become [u] times them: the left
   product with the 2×2 [u] acting on that pair of basis states. *)
let mix_rows m u r0 r1 =
  let u = Mat.buffer u in
  for c = 0 to 3 do
    let o0 = 2 * ((4 * r0) + c) and o1 = 2 * ((4 * r1) + c) in
    let xr = m.(o0) and xi = m.(o0 + 1) and yr = m.(o1) and yi = m.(o1 + 1) in
    m.(o0) <- (u.(0) *. xr) -. (u.(1) *. xi) +. ((u.(2) *. yr) -. (u.(3) *. yi));
    m.(o0 + 1) <- (u.(0) *. xi) +. (u.(1) *. xr) +. ((u.(2) *. yi) +. (u.(3) *. yr));
    m.(o1) <- (u.(4) *. xr) -. (u.(5) *. xi) +. ((u.(6) *. yr) -. (u.(7) *. yi));
    m.(o1 + 1) <- (u.(4) *. xi) +. (u.(5) *. xr) +. ((u.(6) *. yi) +. (u.(7) *. yr))
  done

(* The 4×4 of a block on wires (q0, q1), bit 0 of its index being [q0]
   (the {!Statevector.apply_matrix2} convention): the product of its
   source ops, oldest first. *)
let block_matrix ~q0 sources =
  let m = Array.make 32 0.0 in
  for i = 0 to 3 do
    m.(10 * i) <- 1.0
  done;
  let bit q = if q = q0 then 1 else 2 in
  List.iter
    (function
      | Apply { m = u; controls = []; target } ->
          let s = bit target in
          mix_rows m u 0 s;
          mix_rows m u (3 - s) 3
      | Apply { m = u; controls = [ control ]; _ } -> mix_rows m u (bit control) 3
      | Swap { controls = []; _ } ->
          for c = 0 to 3 do
            let o1 = 2 * (4 + c) and o2 = 2 * (8 + c) in
            let r = m.(o1) and i = m.(o1 + 1) in
            m.(o1) <- m.(o2);
            m.(o1 + 1) <- m.(o2 + 1);
            m.(o2) <- r;
            m.(o2 + 1) <- i
          done
      | Apply _ | Swap _ | Block _ -> invalid_arg "Fusion: not a gate on the block's pair")
    sources;
  Mat.of_buffer ~rows:4 ~cols:4 m

(* A block collects the ops on one wire pair, newest first, with what
   they would cost on their own kernels. *)
type block = { q0 : int; q1 : int; mutable sources : op list; mutable cost : int }
type slot = Op of op | Pair of block

(* Planning walks the circuit once.  Per wire it keeps the product of
   the single-qubit gates not yet placed ([pending]) and the block still
   open on the wire ([open_]).  A block is placed where its first
   two-qubit gate stands; an op it takes later commutes with everything
   placed in between, because any op on one of its wires in between
   would have closed the block on that wire. *)
let plan c =
  if not (Circuit.is_unitary_only c) then
    invalid_arg "Fusion.plan: circuit measures, resets or branches";
  let n = Circuit.num_qubits c in
  let pending = Array.make n None and open_ = Array.make n None in
  let slots = ref [] and gates = ref 0 in
  let emit s = slots := s :: !slots in
  let take b op cost =
    b.sources <- op :: b.sources;
    b.cost <- b.cost + cost
  in
  let take_pending b q =
    Option.iter (fun m -> take b (Apply { m; controls = []; target = q }) (cost_2x2 m)) pending.(q);
    pending.(q) <- None;
    open_.(q) <- Some b
  in
  let flush q =
    Option.iter (fun m -> emit (Op (Apply { m; controls = []; target = q }))) pending.(q);
    pending.(q) <- None;
    open_.(q) <- None
  in
  let two_qubit op x y =
    match (open_.(x), open_.(y)) with
    | Some b, Some b' when b == b' -> take b op cost_two_qubit
    | _ ->
        let b = { q0 = x; q1 = y; sources = []; cost = 0 } in
        take_pending b x;
        take_pending b y;
        take b op cost_two_qubit;
        emit (Pair b)
  in
  let wide op qs =
    List.iter flush qs;
    emit (Op op)
  in
  List.iter
    (fun instr ->
      match instr with
      | Circuit.Barrier _ -> ()
      | Circuit.Apply { gate; controls; target } -> (
          incr gates;
          let m = Gate.matrix gate in
          let op = Apply { m; controls; target } in
          match controls with
          | [] -> (
              match (open_.(target), pending.(target)) with
              | Some b, _ -> take b op (cost_2x2 m)
              | None, None -> pending.(target) <- Some m
              | None, Some p -> pending.(target) <- Some (mul2 m p))
          | [ control ] -> two_qubit op target control
          | _ -> wide op (target :: controls))
      | Circuit.Swap { controls; a; b } -> (
          incr gates;
          let op = Swap { controls; a; b } in
          match controls with [] -> two_qubit op a b | _ -> wide op (a :: b :: controls))
      | Circuit.Measure _ | Circuit.Reset _ | Circuit.If _ -> assert false)
    (Circuit.instructions c);
  for q = 0 to n - 1 do
    flush q
  done;
  let ops =
    List.fold_left
      (fun acc -> function
        | Op op -> op :: acc
        | Pair b when b.cost > cost_4x4 ->
            Block { m = block_matrix ~q0:b.q0 (List.rev b.sources); q0 = b.q0; q1 = b.q1 } :: acc
        | Pair b -> List.rev_append b.sources acc)
      [] !slots
  in
  { num_qubits = n; ops = Array.of_list ops; gates = !gates }

(* The unfused walk counts [sv.gates] once per source gate; the fused run
   adds the same total, so the counter means the same on both paths. *)
let m_gates = Qdt_obs.Metrics.counter "sv.gates"

let run sv t =
  if Statevector.num_qubits sv <> t.num_qubits then
    invalid_arg "Fusion.run: qubit count differs from the plan's";
  Qdt_obs.Metrics.add m_gates t.gates;
  Array.iter
    (fun op ->
      Qdt_obs.Trace.emit_begin "sv.gate";
      (match op with
      | Apply { m; controls; target } -> Statevector.apply_matrix sv m ~controls ~target
      | Swap { controls; a; b } -> Statevector.apply_swap sv ~controls a b
      | Block { m; q0; q1 } -> Statevector.apply_matrix2 sv m ~controls:[] ~q0 ~q1);
      Qdt_obs.Trace.emit_end "sv.gate")
    t.ops
