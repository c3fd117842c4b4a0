open Qdt_circuit

(* Aaronson & Gottesman, "Improved simulation of stabilizer circuits",
   PRA 70, 052328 (2004).  Rows 0..n-1 are destabilizers, n..2n-1 the
   stabilizers; one scratch row at index 2n is used by deterministic
   measurements.  Bools keep the code simple; a bit-packed variant would
   gain a constant factor only. *)

type t = {
  n : int;
  xs : bool array array; (* (2n+1) × n *)
  zs : bool array array;
  rs : bool array;       (* sign bit per row *)
}

let create n =
  if n < 1 then invalid_arg "Tableau.create: need n >= 1";
  let rows = (2 * n) + 1 in
  let t =
    {
      n;
      xs = Array.make_matrix rows n false;
      zs = Array.make_matrix rows n false;
      rs = Array.make rows false;
    }
  in
  for i = 0 to n - 1 do
    t.xs.(i).(i) <- true;       (* destabilizer X_i *)
    t.zs.(n + i).(i) <- true    (* stabilizer Z_i *)
  done;
  t

let num_qubits t = t.n

(* Return to the |0…0⟩ tableau in place, keeping the row allocations —
   the reuse path of a stabilizer backend session. *)
let reset t =
  let rows = (2 * t.n) + 1 in
  for i = 0 to rows - 1 do
    Array.fill t.xs.(i) 0 t.n false;
    Array.fill t.zs.(i) 0 t.n false
  done;
  Array.fill t.rs 0 rows false;
  for i = 0 to t.n - 1 do
    t.xs.(i).(i) <- true;
    t.zs.(t.n + i).(i) <- true
  done

let copy t =
  {
    n = t.n;
    xs = Array.map Array.copy t.xs;
    zs = Array.map Array.copy t.zs;
    rs = Array.copy t.rs;
  }

let check_qubit t q =
  if q < 0 || q >= t.n then invalid_arg "Tableau: qubit out of range"

let h t q =
  check_qubit t q;
  for i = 0 to (2 * t.n) - 1 do
    let x = t.xs.(i).(q) and z = t.zs.(i).(q) in
    if x && z then t.rs.(i) <- not t.rs.(i);
    t.xs.(i).(q) <- z;
    t.zs.(i).(q) <- x
  done

let s t q =
  check_qubit t q;
  for i = 0 to (2 * t.n) - 1 do
    let x = t.xs.(i).(q) and z = t.zs.(i).(q) in
    if x && z then t.rs.(i) <- not t.rs.(i);
    t.zs.(i).(q) <- z <> x
  done

let sdg t q =
  s t q;
  s t q;
  s t q

let z t q =
  s t q;
  s t q

let x t q =
  h t q;
  z t q;
  h t q

let y t q =
  (* Y = S·X·S† up to phase; global phase is invisible in the tableau *)
  z t q;
  x t q

let cx t a b =
  check_qubit t a;
  check_qubit t b;
  if a = b then invalid_arg "Tableau.cx: identical operands";
  for i = 0 to (2 * t.n) - 1 do
    let xa = t.xs.(i).(a) and za = t.zs.(i).(a) in
    let xb = t.xs.(i).(b) and zb = t.zs.(i).(b) in
    if xa && zb && xb = za then t.rs.(i) <- not t.rs.(i);
    t.xs.(i).(b) <- xb <> xa;
    t.zs.(i).(a) <- za <> zb
  done

let cz t a b =
  h t b;
  cx t a b;
  h t b

let swap t a b =
  cx t a b;
  cx t b a;
  cx t a b

(* Phase bookkeeping for multiplying Pauli rows: g is the exponent of i
   contributed by one qubit position when multiplying (x1,z1)·(x2,z2). *)
let g x1 z1 x2 z2 =
  match (x1, z1) with
  | false, false -> 0
  | true, true -> (if z2 then 1 else 0) - if x2 then 1 else 0
  | true, false -> if z2 then (if x2 then 1 else -1) else 0
  | false, true -> if x2 then (if z2 then -1 else 1) else 0

(* row h <- row h * row i *)
let rowsum t hrow irow =
  let phase = ref 0 in
  for q = 0 to t.n - 1 do
    phase := !phase + g t.xs.(irow).(q) t.zs.(irow).(q) t.xs.(hrow).(q) t.zs.(hrow).(q)
  done;
  let total =
    (2 * ((if t.rs.(hrow) then 1 else 0) + if t.rs.(irow) then 1 else 0)) + !phase
  in
  let total = ((total mod 4) + 4) mod 4 in
  assert (total = 0 || total = 2);
  t.rs.(hrow) <- total = 2;
  for q = 0 to t.n - 1 do
    t.xs.(hrow).(q) <- t.xs.(hrow).(q) <> t.xs.(irow).(q);
    t.zs.(hrow).(q) <- t.zs.(hrow).(q) <> t.zs.(irow).(q)
  done

let clear_row t row =
  Array.fill t.xs.(row) 0 t.n false;
  Array.fill t.zs.(row) 0 t.n false;
  t.rs.(row) <- false

let measure_with t ~random_bit q =
  check_qubit t q;
  let n = t.n in
  (* Is some stabilizer anticommuting with Z_q (i.e. has an X at q)? *)
  let p = ref (-1) in
  for i = n to (2 * n) - 1 do
    if !p < 0 && t.xs.(i).(q) then p := i
  done;
  if !p >= 0 then begin
    let p = !p in
    (* Row p−n is overwritten below and is the only row that may
       anticommute with row p, so it is skipped. *)
    for i = 0 to (2 * n) - 1 do
      if i <> p && i <> p - n && t.xs.(i).(q) then rowsum t i p
    done;
    (* destabilizer p-n becomes old stabilizer p; stabilizer p becomes ±Z_q *)
    Array.blit t.xs.(p) 0 t.xs.(p - n) 0 n;
    Array.blit t.zs.(p) 0 t.zs.(p - n) 0 n;
    t.rs.(p - n) <- t.rs.(p);
    clear_row t p;
    let outcome = random_bit () in
    t.zs.(p).(q) <- true;
    t.rs.(p) <- outcome = 1;
    outcome
  end
  else begin
    (* deterministic: accumulate into the scratch row *)
    let scratch = 2 * n in
    clear_row t scratch;
    for i = 0 to n - 1 do
      if t.xs.(i).(q) then rowsum t scratch (i + n)
    done;
    if t.rs.(scratch) then 1 else 0
  end

let measure t ~rng q = measure_with t ~random_bit:(fun () -> Random.State.int rng 2) q

let expectation_z t q =
  check_qubit t q;
  let probe = copy t in
  let deterministic = ref true in
  let outcome =
    measure_with probe
      ~random_bit:(fun () ->
        deterministic := false;
        0)
      q
  in
  if not !deterministic then 0 else if outcome = 1 then -1 else 1

let supported_gate = function
  | Gate.I | Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.S | Gate.Sdg -> true
  | Gate.T | Gate.Tdg | Gate.Sx | Gate.Sxdg | Gate.Rx _ | Gate.Ry _ | Gate.Rz _
  | Gate.Phase _ | Gate.U3 _ ->
      false

let rec apply_instruction t instr ~rng ~clbits =
  match instr with
  | Circuit.If { value; instr } ->
      if Circuit.creg_value clbits = value then apply_instruction t instr ~rng ~clbits
  | Circuit.Barrier _ -> ()
  | Circuit.Measure { qubit; clbit } -> clbits.(clbit) <- measure t ~rng qubit
  | Circuit.Reset q -> if measure t ~rng q = 1 then x t q
  | Circuit.Swap { controls = []; a; b } -> swap t a b
  | Circuit.Swap { controls = _ :: _; _ } ->
      invalid_arg "Tableau: controlled swap is not Clifford"
  | Circuit.Apply { gate; controls = []; target } -> (
      match gate with
      | Gate.I -> ()
      | Gate.X -> x t target
      | Gate.Y -> y t target
      | Gate.Z -> z t target
      | Gate.H -> h t target
      | Gate.S -> s t target
      | Gate.Sdg -> sdg t target
      | _ -> invalid_arg "Tableau: non-Clifford gate")
  | Circuit.Apply { gate; controls = [ ctl ]; target } -> (
      match gate with
      | Gate.X -> cx t ctl target
      | Gate.Z -> cz t ctl target
      | Gate.Y ->
          (* CY = S_t · CX · S_t† *)
          sdg t target;
          cx t ctl target;
          s t target
      | _ -> invalid_arg "Tableau: non-Clifford controlled gate")
  | Circuit.Apply { controls = _ :: _ :: _; _ } ->
      invalid_arg "Tableau: multi-controlled gates are not Clifford"

let supports circuit =
  let rec instr_ok instr =
    match instr with
    | Circuit.Barrier _ | Circuit.Measure _ | Circuit.Reset _ -> true
    | Circuit.If { instr; _ } -> instr_ok instr
    | Circuit.Swap { controls = []; _ } -> true
    | Circuit.Swap _ -> false
    | Circuit.Apply { gate; controls = []; _ } -> supported_gate gate
    | Circuit.Apply { gate = Gate.X | Gate.Z | Gate.Y; controls = [ _ ]; _ } -> true
    | Circuit.Apply _ -> false
  in
  List.for_all instr_ok (Circuit.instructions circuit)

let run ?(seed = 0) circuit =
  let t = create (Circuit.num_qubits circuit) in
  let clbits =
    Circuit.execute circuit ~rng:(Random.State.make [| seed |]) (apply_instruction t)
  in
  (t, clbits)

let sample ?(seed = 0) t ~shots =
  let rng = Random.State.make [| seed |] in
  let counts = Hashtbl.create 64 in
  for _shot = 1 to shots do
    let probe = copy t in
    let k = ref 0 in
    for q = 0 to t.n - 1 do
      if measure probe ~rng q = 1 then k := !k lor (1 lsl q)
    done;
    Hashtbl.replace counts !k (1 + Option.value ~default:0 (Hashtbl.find_opt counts !k))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pauli_char x zbit =
  match (x, zbit) with
  | false, false -> '.'
  | true, false -> 'X'
  | false, true -> 'Z'
  | true, true -> 'Y'

let stabilizer_strings t =
  List.init t.n (fun i ->
      let row = t.n + i in
      let sign = if t.rs.(row) then "-" else "+" in
      sign
      ^ String.init t.n (fun q -> pauli_char t.xs.(row).(q) t.zs.(row).(q)))

let memory_bytes t = ((2 * t.n) + 1) * ((2 * t.n) + 1) / 8

let pp ppf t =
  Format.fprintf ppf "@[<v 0>stabilizers:";
  List.iter (fun s -> Format.fprintf ppf "@,  %s" s) (stabilizer_strings t);
  Format.fprintf ppf "@]"
