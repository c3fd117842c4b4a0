(* Boxed reference statevector (pre-unboxing), with the observability
   instrumentation stripped so baseline runs do not pollute the metric
   registry.  Gate matrices still arrive as (unboxed) Qdt_linalg.Mat.t;
   entries are read once per gate via Mat.get, which is the API boundary.
   See vec_ref.ml. *)
open Qdt_linalg
open Qdt_circuit

type t = { n : int; amps : Cx.t array }

let create n =
  if n < 1 || n > 26 then invalid_arg "Sv_ref.create: unsupported qubit count";
  let amps = Array.make (1 lsl n) Cx.zero in
  amps.(0) <- Cx.one;
  { n; amps }

let num_qubits sv = sv.n
let amplitude sv k = sv.amps.(k)
let probability sv k = Cx.norm2 sv.amps.(k)
let probabilities sv = Array.map Cx.norm2 sv.amps

let norm sv =
  let acc = ref 0.0 in
  Array.iter (fun z -> acc := !acc +. Cx.norm2 z) sv.amps;
  Float.sqrt !acc

let control_mask controls =
  List.fold_left (fun mask q -> mask lor (1 lsl q)) 0 controls

let apply_matrix sv m ~controls ~target =
  if Mat.rows m <> 2 || Mat.cols m <> 2 then
    invalid_arg "Sv_ref.apply_matrix: need a 2x2 matrix";
  let u00 = Mat.get m 0 0 and u01 = Mat.get m 0 1 in
  let u10 = Mat.get m 1 0 and u11 = Mat.get m 1 1 in
  let stride = 1 lsl target in
  let cmask = control_mask controls in
  let amps = sv.amps in
  let size = Array.length amps in
  let exact_zero (z : Cx.t) = z.Cx.re = 0.0 && z.Cx.im = 0.0 in
  if exact_zero u01 && exact_zero u10 then begin
    let one_like (z : Cx.t) = z.Cx.re = 1.0 && z.Cx.im = 0.0 in
    let skip00 = one_like u00 and skip11 = one_like u11 in
    for k = 0 to size - 1 do
      if k land cmask = cmask then
        if k land stride = 0 then begin
          if not skip00 then amps.(k) <- Cx.mul u00 amps.(k)
        end
        else if not skip11 then amps.(k) <- Cx.mul u11 amps.(k)
    done
  end
  else if exact_zero u00 && exact_zero u11 then begin
    let k = ref 0 in
    while !k < size do
      if !k land stride = 0 && !k land cmask = cmask then begin
        let a0 = amps.(!k) and a1 = amps.(!k + stride) in
        amps.(!k) <- Cx.mul u01 a1;
        amps.(!k + stride) <- Cx.mul u10 a0
      end;
      incr k
    done
  end
  else begin
    let k = ref 0 in
    while !k < size do
      if !k land stride = 0 && !k land cmask = cmask then begin
        let a0 = amps.(!k) and a1 = amps.(!k + stride) in
        amps.(!k) <- Cx.add (Cx.mul u00 a0) (Cx.mul u01 a1);
        amps.(!k + stride) <- Cx.add (Cx.mul u10 a0) (Cx.mul u11 a1)
      end;
      incr k
    done
  end

let apply_gate sv gate ~controls ~target =
  apply_matrix sv (Gate.matrix gate) ~controls ~target

let apply_swap sv ~controls a b =
  let cmask = control_mask controls in
  let ba = 1 lsl a and bb = 1 lsl b in
  let amps = sv.amps in
  for k = 0 to Array.length amps - 1 do
    if k land ba <> 0 && k land bb = 0 && k land cmask = cmask then begin
      let partner = k lxor ba lxor bb in
      let tmp = amps.(k) in
      amps.(k) <- amps.(partner);
      amps.(partner) <- tmp
    end
  done

let renormalise sv =
  let n = norm sv in
  if n < 1e-14 then invalid_arg "Sv_ref: state collapsed to zero norm";
  let inv = 1.0 /. n in
  Array.iteri (fun k z -> sv.amps.(k) <- Cx.scale inv z) sv.amps

let project sv q bit =
  let mask = 1 lsl q in
  Array.iteri
    (fun k _z ->
      let has = if k land mask <> 0 then 1 else 0 in
      if has <> bit then sv.amps.(k) <- Cx.zero)
    sv.amps

let prob_of_bit sv q bit =
  let mask = 1 lsl q in
  let acc = ref 0.0 in
  Array.iteri
    (fun k z ->
      let has = if k land mask <> 0 then 1 else 0 in
      if has = bit then acc := !acc +. Cx.norm2 z)
    sv.amps;
  !acc

let measure_qubit sv ~rng q =
  let p1 = prob_of_bit sv q 1 in
  let bit = if Random.State.float rng 1.0 < p1 then 1 else 0 in
  project sv q bit;
  renormalise sv;
  bit

let rec apply_instruction sv instr ~rng ~clbits =
  match instr with
  | Circuit.If { value; instr } ->
      if Circuit.creg_value clbits = value then apply_instruction sv instr ~rng ~clbits
  | Circuit.Apply { gate; controls; target } -> apply_gate sv gate ~controls ~target
  | Circuit.Swap { controls; a; b } -> apply_swap sv ~controls a b
  | Circuit.Measure { qubit; clbit } -> clbits.(clbit) <- measure_qubit sv ~rng qubit
  | Circuit.Reset q ->
      let bit = measure_qubit sv ~rng q in
      if bit = 1 then apply_gate sv Gate.X ~controls:[] ~target:q
  | Circuit.Barrier _ -> ()

let run ?(seed = 0) circuit =
  let sv = create (Circuit.num_qubits circuit) in
  let rng = Random.State.make [| seed |] in
  let clbits = Array.make (max 1 (Circuit.num_clbits circuit)) 0 in
  List.iter
    (fun instr -> apply_instruction sv instr ~rng ~clbits)
    (Circuit.instructions circuit);
  (sv, clbits)

let run_unitary circuit =
  if not (Circuit.is_unitary_only circuit) then
    invalid_arg "Sv_ref.run_unitary: circuit measures or resets";
  fst (run circuit)

let expectation_z sv q =
  let mask = 1 lsl q in
  let acc = ref 0.0 in
  Array.iteri
    (fun k z ->
      let sign = if k land mask = 0 then 1.0 else -1.0 in
      acc := !acc +. (sign *. Cx.norm2 z))
    sv.amps;
  !acc

(* The linear-scan sampler [Statevector.sample] ran before it bisected a
   running sum: one scan of the probability table per shot.  Kept
   verbatim as the reference its counts must equal. *)
let sample_table ?(seed = 0) probs ~shots =
  let rng = Random.State.make [| seed |] in
  let dim = Array.length probs in
  let counts = Hashtbl.create 64 in
  for _shot = 1 to shots do
    let r = Random.State.float rng 1.0 in
    let acc = ref 0.0 and chosen = ref (dim - 1) and k = ref 0 in
    let continue = ref true in
    while !continue && !k < dim do
      acc := !acc +. probs.(!k);
      if !acc >= r then begin
        chosen := !k;
        continue := false
      end;
      incr k
    done;
    Hashtbl.replace counts !chosen
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts !chosen))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let memory_bytes sv = 16 * Array.length sv.amps
