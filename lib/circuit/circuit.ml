type instruction =
  | Apply of { gate : Gate.t; controls : int list; target : int }
  | Swap of { controls : int list; a : int; b : int }
  | Measure of { qubit : int; clbit : int }
  | Reset of int
  | Barrier of int list
  | If of { value : int; instr : instruction }

type t = {
  num_qubits : int;
  num_clbits : int;
  rev_instrs : instruction list;
  len : int;
}

let empty ?(clbits = 0) n =
  if n <= 0 then invalid_arg "Circuit.empty: need at least one qubit";
  if clbits < 0 then invalid_arg "Circuit.empty: negative clbit count";
  { num_qubits = n; num_clbits = clbits; rev_instrs = []; len = 0 }

let num_qubits c = c.num_qubits
let num_clbits c = c.num_clbits
let instructions c = List.rev c.rev_instrs
let length c = c.len

let rec qubits_of_instruction = function
  | Apply { controls; target; _ } -> target :: controls
  | Swap { controls; a; b } -> a :: b :: controls
  | Measure { qubit; _ } -> [ qubit ]
  | Reset q -> [ q ]
  | Barrier qs -> qs
  | If { instr; _ } -> qubits_of_instruction instr

let rec distinct = function
  | [] -> true
  | q :: rest -> (not (List.mem q rest)) && distinct rest

let rec validate c instr =
  let qs = qubits_of_instruction instr in
  List.iter
    (fun q ->
      if q < 0 || q >= c.num_qubits then
        invalid_arg
          (Printf.sprintf "Circuit.add: qubit %d out of range [0,%d)" q
             c.num_qubits))
    qs;
  if not (distinct qs) then invalid_arg "Circuit.add: repeated qubit operands";
  match instr with
  | Measure { clbit; _ } ->
      if clbit < 0 || clbit >= c.num_clbits then
        invalid_arg (Printf.sprintf "Circuit.add: clbit %d out of range" clbit)
  | If { value; instr = inner } -> (
      if c.num_clbits <= 0 then
        invalid_arg "Circuit.add: classical condition requires a classical register";
      if value < 0 then
        invalid_arg "Circuit.add: negative classical condition value";
      if c.num_clbits < Sys.int_size - 2 && value lsr c.num_clbits <> 0 then
        invalid_arg
          (Printf.sprintf
             "Circuit.add: condition value %d exceeds the %d-bit classical register"
             value c.num_clbits);
      match inner with
      | If _ -> invalid_arg "Circuit.add: nested classical conditions not supported"
      | Barrier _ -> invalid_arg "Circuit.add: conditional barrier not supported"
      | Apply _ | Swap _ | Measure _ | Reset _ -> validate c inner)
  | Apply _ | Swap _ | Reset _ | Barrier _ -> ()

let add instr c =
  validate c instr;
  { c with rev_instrs = instr :: c.rev_instrs; len = c.len + 1 }

let gate g target c = add (Apply { gate = g; controls = []; target }) c
let cgate g ~controls ~target c = add (Apply { gate = g; controls; target }) c
let x q c = gate Gate.X q c
let y q c = gate Gate.Y q c
let z q c = gate Gate.Z q c
let h q c = gate Gate.H q c
let s q c = gate Gate.S q c
let sdg q c = gate Gate.Sdg q c
let t q c = gate Gate.T q c
let tdg q c = gate Gate.Tdg q c
let sx q c = gate Gate.Sx q c
let rx theta q c = gate (Gate.Rx theta) q c
let ry theta q c = gate (Gate.Ry theta) q c
let rz theta q c = gate (Gate.Rz theta) q c
let phase theta q c = gate (Gate.Phase theta) q c
let u3 ~theta ~phi ~lambda q c = gate (Gate.U3 { theta; phi; lambda }) q c
let cx ctl tgt c = cgate Gate.X ~controls:[ ctl ] ~target:tgt c
let cy ctl tgt c = cgate Gate.Y ~controls:[ ctl ] ~target:tgt c
let cz ctl tgt c = cgate Gate.Z ~controls:[ ctl ] ~target:tgt c
let ch ctl tgt c = cgate Gate.H ~controls:[ ctl ] ~target:tgt c
let cphase theta ctl tgt c = cgate (Gate.Phase theta) ~controls:[ ctl ] ~target:tgt c
let crz theta ctl tgt c = cgate (Gate.Rz theta) ~controls:[ ctl ] ~target:tgt c
let cry theta ctl tgt c = cgate (Gate.Ry theta) ~controls:[ ctl ] ~target:tgt c
let ccx c1 c2 tgt c = cgate Gate.X ~controls:[ c1; c2 ] ~target:tgt c
let ccz c1 c2 tgt c = cgate Gate.Z ~controls:[ c1; c2 ] ~target:tgt c
let swap a b c = add (Swap { controls = []; a; b }) c
let cswap ctl a b c = add (Swap { controls = [ ctl ]; a; b }) c
let measure ~qubit ~clbit c = add (Measure { qubit; clbit }) c

let measure_all c =
  let c =
    if c.num_clbits >= c.num_qubits then c
    else { c with num_clbits = c.num_qubits }
  in
  let rec loop q acc =
    if q >= acc.num_qubits then acc
    else loop (q + 1) (measure ~qubit:q ~clbit:q acc)
  in
  loop 0 c

let reset q c = add (Reset q) c
let barrier c = add (Barrier (List.init c.num_qubits (fun q -> q))) c
let if_eq value instr c = add (If { value; instr }) c
let if_gate value g target c = if_eq value (Apply { gate = g; controls = []; target }) c
let if_x value q c = if_gate value Gate.X q c
let if_z value q c = if_gate value Gate.Z q c

let append a b =
  if a.num_qubits <> b.num_qubits then
    invalid_arg "Circuit.append: qubit count mismatch";
  {
    num_qubits = a.num_qubits;
    num_clbits = max a.num_clbits b.num_clbits;
    rev_instrs = b.rev_instrs @ a.rev_instrs;
    len = a.len + b.len;
  }

let is_unitary_only c =
  List.for_all
    (function
      | Measure _ | Reset _ | If _ -> false | Apply _ | Swap _ | Barrier _ -> true)
    c.rev_instrs

let unitary_instructions c =
  List.filter
    (function
      | Apply _ | Swap _ -> true | Measure _ | Reset _ | Barrier _ | If _ -> false)
    (instructions c)

let has_conditionals c = List.exists (function If _ -> true | _ -> false) c.rev_instrs

let rec instr_measures = function
  | Measure _ -> true
  | If { instr; _ } -> instr_measures instr
  | Apply _ | Swap _ | Reset _ | Barrier _ -> false

let has_measure c = List.exists instr_measures c.rev_instrs

(* A circuit is dynamic when its shot-loop outcome depends on per-shot
   classical state: any conditional or reset, or a measurement whose qubit
   is used again afterwards (mid-circuit measurement).  mqt-core draws the
   same line in [sample] — static circuits are simulated once and sampled,
   dynamic circuits re-execute per shot.  [rev_instrs] is reverse program
   order, so one pass marks "used later" qubits. *)
let is_dynamic c =
  let used = Array.make c.num_qubits false in
  let rec scan = function
    | [] -> false
    | instr :: rest -> (
        match instr with
        | If _ | Reset _ -> true
        | Measure { qubit; _ } ->
            if used.(qubit) then true
            else begin
              used.(qubit) <- true;
              scan rest
            end
        | Barrier _ -> scan rest
        | Apply _ | Swap _ ->
            List.iter (fun q -> used.(q) <- true) (qubits_of_instruction instr);
            scan rest)
  in
  scan c.rev_instrs

let creg_value clbits =
  let v = ref 0 in
  Array.iteri (fun k bit -> if bit <> 0 then v := !v lor (1 lsl k)) clbits;
  !v

(* The one instruction walk behind every simulator's run, the session
   adapters' warm and per-shot runs, and the seeded-RNG pins: a zeroed
   register (one slot even without clbits, so [If] can read it), then
   every instruction in program order. *)
let execute c ~rng step =
  let clbits = Array.make (max 1 c.num_clbits) 0 in
  List.iter (fun instr -> step instr ~rng ~clbits) (instructions c);
  clbits

let adjoint c =
  if not (is_unitary_only c) then
    invalid_arg "Circuit.adjoint: circuit contains measurements or resets";
  let invert = function
    | Apply { gate; controls; target } ->
        Apply { gate = Gate.adjoint gate; controls; target }
    | Swap _ as sw -> sw
    | Barrier _ as bar -> bar
    | Measure _ | Reset _ | If _ -> assert false
  in
  (* Reversal of program order is exactly keeping [rev_instrs] order. *)
  { c with rev_instrs = List.rev_map invert c.rev_instrs }

let remap f c =
  let rec g = function
    | Apply { gate; controls; target } ->
        Apply { gate; controls = List.map f controls; target = f target }
    | Swap { controls; a; b } -> Swap { controls = List.map f controls; a = f a; b = f b }
    | Measure { qubit; clbit } -> Measure { qubit = f qubit; clbit }
    | Reset q -> Reset (f q)
    | Barrier qs -> Barrier (List.map f qs)
    | If { value; instr } -> If { value; instr = g instr }
  in
  let remapped = List.rev_map g c.rev_instrs in
  List.fold_left (fun acc instr -> add instr acc) { c with rev_instrs = []; len = 0 } remapped

let rec mnemonic = function
  | Apply { gate; controls; target = _ } ->
      String.concat "" (List.map (fun _ -> "c") controls) ^ Gate.name gate
  | Swap { controls; _ } ->
      String.concat "" (List.map (fun _ -> "c") controls) ^ "swap"
  | Measure _ -> "measure"
  | Reset _ -> "reset"
  | Barrier _ -> "barrier"
  | If { instr; _ } -> "if(" ^ mnemonic instr ^ ")"

let gate_counts c =
  let table = Hashtbl.create 16 in
  List.iter
    (fun instr ->
      match instr with
      | Barrier _ -> ()
      | _ ->
          let key = mnemonic instr in
          Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key)))
    c.rev_instrs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let count_total c =
  List.length (List.filter (function Barrier _ -> false | _ -> true) c.rev_instrs)

let count_two_qubit c =
  let rec two_qubit = function
    | Apply { controls = [ _ ]; _ } -> true
    | Swap { controls = []; _ } -> true
    | If { instr; _ } -> two_qubit instr
    | Apply _ | Swap _ | Measure _ | Reset _ | Barrier _ -> false
  in
  List.length (List.filter two_qubit c.rev_instrs)

let t_count c =
  let rec is_t = function
    | Apply { gate = Gate.T | Gate.Tdg; _ } -> true
    | If { instr; _ } -> is_t instr
    | _ -> false
  in
  List.length (List.filter is_t c.rev_instrs)

let depth c =
  let level = Array.make c.num_qubits 0 in
  List.iter
    (fun instr ->
      match instr with
      | Barrier qs ->
          let m = List.fold_left (fun acc q -> max acc level.(q)) 0 qs in
          List.iter (fun q -> level.(q) <- m) qs
      | _ ->
          let qs = qubits_of_instruction instr in
          let m = List.fold_left (fun acc q -> max acc level.(q)) 0 qs in
          List.iter (fun q -> level.(q) <- m + 1) qs)
    (instructions c);
  Array.fold_left max 0 level

let rec instruction_equal a b =
  match (a, b) with
  | Apply x, Apply y ->
      Gate.equal x.gate y.gate
      && List.sort compare x.controls = List.sort compare y.controls
      && x.target = y.target
  | Swap x, Swap y ->
      List.sort compare x.controls = List.sort compare y.controls
      && ((x.a = y.a && x.b = y.b) || (x.a = y.b && x.b = y.a))
  | Measure x, Measure y -> x.qubit = y.qubit && x.clbit = y.clbit
  | Reset p, Reset q -> p = q
  | Barrier p, Barrier q -> List.sort compare p = List.sort compare q
  | If x, If y -> x.value = y.value && instruction_equal x.instr y.instr
  | (Apply _ | Swap _ | Measure _ | Reset _ | Barrier _ | If _), _ -> false

let equal a b =
  a.num_qubits = b.num_qubits && a.len = b.len
  && List.for_all2 instruction_equal a.rev_instrs b.rev_instrs

let rec pp_instruction ppf instr =
  match instr with
  | If { value; instr } -> Format.fprintf ppf "if(c==%d) %a" value pp_instruction instr
  | Apply { gate; controls; target } ->
      let ops = List.map string_of_int (controls @ [ target ]) in
      Format.fprintf ppf "%s%a %s"
        (String.concat "" (List.map (fun _ -> "c") controls))
        Gate.pp gate
        (String.concat "," ops)
  | Swap { controls = []; a; b } -> Format.fprintf ppf "swap %d,%d" a b
  | Swap { controls; a; b } ->
      Format.fprintf ppf "%sswap %s,%d,%d"
        (String.concat "" (List.map (fun _ -> "c") controls))
        (String.concat "," (List.map string_of_int controls))
        a b
  | Measure { qubit; clbit } -> Format.fprintf ppf "measure %d -> %d" qubit clbit
  | Reset q -> Format.fprintf ppf "reset %d" q
  | Barrier _ -> Format.fprintf ppf "barrier"

let pp ppf c =
  Format.fprintf ppf "@[<v 0>circuit (%d qubits, %d instructions)" c.num_qubits c.len;
  List.iter (fun instr -> Format.fprintf ppf "@,  %a" pp_instruction instr) (instructions c);
  Format.fprintf ppf "@]"
