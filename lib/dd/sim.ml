open Qdt_linalg
open Qdt_circuit

type state = { mgr : Pkg.t; n : int; mutable edge : Pkg.edge }

let make mgr n =
  let edge = Build.zero_state mgr n in
  Pkg.ref_edge mgr edge;
  { mgr; n; edge }

let init n = make (Pkg.create ()) n
let num_qubits st = st.n
let manager st = st.mgr
let root st = st.edge

(* The state root is the only edge pinned across instructions: pin the new
   root before releasing the old one (they may be the same edge). *)
let set_root st e =
  Pkg.ref_edge st.mgr e;
  Pkg.unref_edge st.mgr st.edge;
  st.edge <- e

let amplitude st k = Pkg.amplitude st.mgr st.edge k
let probability st k = Cx.norm2 (amplitude st k)
let to_vec st = Pkg.to_vec st.mgr st.edge ~num_qubits:st.n

let norm2 st = (Pkg.inner st.mgr st.edge st.edge).Cx.re

let prob_one st q =
  let p1 = Build.projector_ones st.mgr st.n [ q ] in
  let projected = Pkg.mul_mv st.mgr p1 st.edge in
  (Pkg.inner st.mgr projected projected).Cx.re /. norm2 st

let expectation_z st q = 1.0 -. (2.0 *. prob_one st q)

let project st q bit =
  let proj =
    if bit = 1 then Build.projector_ones st.mgr st.n [ q ]
    else begin
      (* |0⟩⟨0| on q: build from the 2×2 projector matrix. *)
      let p0 = Mat.of_rows [| [| Cx.one; Cx.zero |]; [| Cx.zero; Cx.zero |] |] in
      Build.gate st.mgr ~num_qubits:st.n ~controls:[] ~target:q p0
    end
  in
  set_root st (Pkg.mul_mv st.mgr proj st.edge);
  let n2 = norm2 st in
  if n2 < 1e-14 then invalid_arg "Sim.project: zero-probability branch";
  set_root st (Pkg.scale st.mgr (Cx.of_float (1.0 /. Float.sqrt n2)) st.edge)

let measure_qubit st ~rng q =
  let p1 = prob_one st q in
  let bit = if Random.State.float rng 1.0 < p1 then 1 else 0 in
  project st q bit;
  bit

(* Observability: manual span brackets (no closure on the per-instruction
   path) chosen by instruction kind.  [Pkg.maybe_gc] runs inside the
   bracket, so "dd.gc" spans nest under the instruction that triggered
   them. *)
let m_gates = Qdt_obs.Metrics.counter "dd.gates"
let m_measurements = Qdt_obs.Metrics.counter "dd.measurements"

let span_of_instr = function
  | Circuit.Apply _ | Circuit.Swap _ -> "dd.gate"
  | Circuit.Measure _ -> "dd.measure"
  | Circuit.Reset _ -> "dd.reset"
  | Circuit.If _ -> "dd.conditional"
  | Circuit.Barrier _ -> ""

let rec apply_instruction st instr ~rng ~clbits =
  let span = span_of_instr instr in
  if span <> "" then Qdt_obs.Trace.emit_begin span;
  (match instr with
  | Circuit.Apply _ | Circuit.Swap _ ->
      Qdt_obs.Metrics.incr m_gates;
      let op = Build.instruction st.mgr ~num_qubits:st.n instr in
      set_root st (Pkg.mul_mv st.mgr op st.edge)
  | Circuit.Measure { qubit; clbit } ->
      Qdt_obs.Metrics.incr m_measurements;
      clbits.(clbit) <- measure_qubit st ~rng qubit
  | Circuit.Reset q ->
      let bit = measure_qubit st ~rng q in
      if bit = 1 then begin
        let op = Build.gate st.mgr ~num_qubits:st.n ~controls:[] ~target:q Gates.x in
        set_root st (Pkg.mul_mv st.mgr op st.edge)
      end
  | Circuit.If { value; instr } ->
      if Circuit.creg_value clbits = value then
        apply_instruction st instr ~rng ~clbits
  | Circuit.Barrier _ -> ());
  (* Only the root is pinned now; dead intermediates are collectable. *)
  Pkg.maybe_gc st.mgr;
  if span <> "" then Qdt_obs.Trace.emit_end span

let run ?(seed = 0) circuit =
  let st = init (Circuit.num_qubits circuit) in
  let clbits =
    Circuit.execute circuit ~rng:(Random.State.make [| seed |]) (apply_instruction st)
  in
  (st, clbits)

let run_unitary circuit =
  if not (Circuit.is_unitary_only circuit) then
    invalid_arg "Sim.run_unitary: circuit measures or resets";
  fst (run circuit)

let sample ?(seed = 0) st ~shots =
  Qdt_obs.Trace.with_span "dd.sample" @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let counts = Hashtbl.create 64 in
  for _shot = 1 to shots do
    let rec descend (e : Pkg.edge) acc =
      match e.Pkg.target with
      | Pkg.Terminal -> acc
      | Pkg.Node n ->
          let p_edge (child : Pkg.edge) =
            if Pkg.is_zero child then 0.0
            else Cx.norm2 child.Pkg.w *. Pkg.subtree_norm2 child
          in
          let p0 = p_edge n.Pkg.edges.(0) and p1 = p_edge n.Pkg.edges.(1) in
          let total = p0 +. p1 in
          let bit = if Random.State.float rng total < p1 then 1 else 0 in
          (* A zero-probability branch can be drawn only on a degenerate
             total; guard against descending into a 0-stub. *)
          let bit = if Pkg.is_zero n.Pkg.edges.(bit) then 1 - bit else bit in
          descend n.Pkg.edges.(bit) (acc lor (bit lsl n.Pkg.var))
    in
    let k = descend st.edge 0 in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fidelity a b =
  if a.mgr != b.mgr then invalid_arg "Sim.fidelity: states from different managers";
  Cx.norm2 (Pkg.inner a.mgr a.edge b.edge)

let release st = Pkg.unref_edge st.mgr st.edge

let node_count st = Pkg.node_count st.edge
let memory_bytes st = Pkg.memory_bytes st.edge

let expectation_pauli st pauli =
  if String.length pauli <> st.n then
    invalid_arg "Sim.expectation_pauli: string length must equal qubit count";
  let matrix_of = function
    | 'I' -> Gates.id2
    | 'X' -> Gates.x
    | 'Y' -> Gates.y
    | 'Z' -> Gates.z
    | c -> invalid_arg (Printf.sprintf "Sim.expectation_pauli: bad Pauli %C" c)
  in
  (* qubit n-1 is the leftmost character *)
  let rec build q acc =
    if q >= st.n then acc
    else
      let m = matrix_of pauli.[st.n - 1 - q] in
      let gate = Build.gate st.mgr ~num_qubits:1 ~controls:[] ~target:0 m in
      let acc' =
        if q = 0 then gate else Pkg.kron st.mgr ~lower_qubits:q gate acc
      in
      build (q + 1) acc'
  in
  let op = build 0 (Pkg.one_edge st.mgr) in
  let applied = Pkg.mul_mv st.mgr op st.edge in
  (Pkg.inner st.mgr st.edge applied).Cx.re
