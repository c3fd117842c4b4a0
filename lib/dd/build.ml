open Qdt_linalg
open Qdt_circuit

let basis_state mgr n k =
  if n < 1 then invalid_arg "Build.basis_state: need n >= 1";
  if k < 0 || k >= 1 lsl n then invalid_arg "Build.basis_state: index out of range";
  let rec level var below =
    if var >= n then below
    else
      let zero = Pkg.zero_edge mgr in
      let edges =
        if (k lsr var) land 1 = 0 then [| below; zero |] else [| zero; below |]
      in
      level (var + 1) (Pkg.make_node mgr ~var edges)
  in
  level 0 (Pkg.one_edge mgr)

let zero_state mgr n = basis_state mgr n 0

let from_vec mgr v =
  let len = Vec.length v in
  let n =
    let rec log2 acc k = if k <= 1 then acc else log2 (acc + 1) (k / 2) in
    log2 0 len
  in
  if 1 lsl n <> len then invalid_arg "Build.from_vec: length must be a power of two";
  (* Recursive halving, exactly the decomposition of Fig. 1a. *)
  let rec encode var lo hi =
    if var < 0 then Pkg.terminal mgr (Vec.get v lo)
    else begin
      assert (hi - lo + 1 = 1 lsl (var + 1));
      let mid = lo + (1 lsl var) in
      let e0 = encode (var - 1) lo (mid - 1) in
      let e1 = encode (var - 1) mid hi in
      Pkg.make_node mgr ~var:(var) [| e0; e1 |]
    end
  in
  encode (n - 1) 0 (len - 1)

let identity mgr n =
  let zero = Pkg.zero_edge mgr in
  let rec level var below =
    if var >= n then below
    else level (var + 1) (Pkg.make_node mgr ~var [| below; zero; zero; below |])
  in
  level 0 (Pkg.one_edge mgr)

let projector_ones mgr n qubits =
  let zero = Pkg.zero_edge mgr in
  let rec level var below =
    if var >= n then below
    else
      let edges =
        if List.mem var qubits then [| zero; zero; zero; below |]
        else [| below; zero; zero; below |]
      in
      level (var + 1) (Pkg.make_node mgr ~var edges)
  in
  level 0 (Pkg.one_edge mgr)

let gate mgr ~num_qubits ~controls ~target u =
  if Mat.rows u <> 2 || Mat.cols u <> 2 then invalid_arg "Build.gate: need a 2x2 matrix";
  if target < 0 || target >= num_qubits then invalid_arg "Build.gate: target out of range";
  List.iter
    (fun q ->
      if q < 0 || q >= num_qubits || q = target then
        invalid_arg "Build.gate: bad control")
    controls;
  let zero = Pkg.zero_edge mgr in
  let controls_below = List.filter (fun q -> q < target) controls in
  (* Target level: O = Σ_{r,c} |r⟩⟨c| ⊗ (u_rc·P + δ_rc·(I−P)) where P
     projects the controls below the target onto all-ones. *)
  let target_node =
    let p = projector_ones mgr target controls_below in
    let diag_rest =
      if controls_below = [] then zero
      else
        (* I − P: identity on the parts where some below-control is 0. *)
        Pkg.add mgr (identity mgr target) (Pkg.scale mgr Cx.minus_one p)
    in
    let entry r c =
      let scaled = Pkg.scale mgr (Mat.get u r c) p in
      if r = c then Pkg.add mgr scaled diag_rest else scaled
    in
    Pkg.make_node mgr ~var:target [| entry 0 0; entry 0 1; entry 1 0; entry 1 1 |]
  in
  (* Levels above the target: controls gate the recursion, other qubits
     pass through. *)
  let rec level var below =
    if var >= num_qubits then below
    else
      let edges =
        if List.mem var controls then [| identity mgr var; zero; zero; below |]
        else [| below; zero; zero; below |]
      in
      level (var + 1) (Pkg.make_node mgr ~var edges)
  in
  level (target + 1) target_node

let swap mgr ~num_qubits ~controls a b =
  (* SWAP(a,b) = CX(a→b) · CX(b→a) · CX(a→b); the Fredkin adds the extra
     controls to the middle CX only... actually to all three is the naive
     correct expansion, but controls on the outer CXs cancel when the
     control is 0, so all three is what we build. *)
  let cx ~controls ~ctl ~tgt =
    gate mgr ~num_qubits ~controls:(ctl :: controls) ~target:tgt Gates.x
  in
  let first = cx ~controls ~ctl:a ~tgt:b in
  let second = cx ~controls ~ctl:b ~tgt:a in
  Pkg.mul_mm mgr first (Pkg.mul_mm mgr second first)

let build_instruction mgr ~num_qubits = function
  | Circuit.Apply { gate = g; controls; target } ->
      gate mgr ~num_qubits ~controls ~target (Gate.matrix g)
  | Circuit.Swap { controls; a; b } -> swap mgr ~num_qubits ~controls a b
  | Circuit.Barrier _ -> identity mgr num_qubits
  | Circuit.Measure _ | Circuit.Reset _ | Circuit.If _ ->
      invalid_arg "Build.instruction: non-unitary instruction"

let instruction mgr ~num_qubits instr =
  Pkg.gate_dd mgr ~num_qubits instr (fun () -> build_instruction mgr ~num_qubits instr)

let circuit_unitary mgr c =
  if not (Circuit.is_unitary_only c) then
    invalid_arg "Build.circuit_unitary: circuit measures or resets";
  let n = Circuit.num_qubits c in
  (* Pin the running product so each retired partial unitary (and its gate
     DDs) can be collected at the per-instruction boundary. *)
  let start = identity mgr n in
  Pkg.ref_edge mgr start;
  let result =
    List.fold_left
      (fun acc instr ->
        let next = Pkg.mul_mm mgr (instruction mgr ~num_qubits:n instr) acc in
        Pkg.ref_edge mgr next;
        Pkg.unref_edge mgr acc;
        Pkg.maybe_gc mgr;
        next)
      start (Circuit.instructions c)
  in
  Pkg.unref_edge mgr result;
  result
