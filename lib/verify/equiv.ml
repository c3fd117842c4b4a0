open Qdt_linalg
open Qdt_circuit

type verdict = Equivalent | Not_equivalent | Inconclusive

let verdict_to_string = function
  | Equivalent -> "equivalent"
  | Not_equivalent -> "not equivalent"
  | Inconclusive -> "inconclusive"

let max_array_qubits = 12

let require_same_arity c1 c2 =
  if Circuit.num_qubits c1 <> Circuit.num_qubits c2 then
    invalid_arg "Equiv: circuits act on different numbers of qubits"

let arrays c1 c2 =
  Qdt_obs.Trace.with_span "verify.arrays" @@ fun () ->
  require_same_arity c1 c2;
  if Circuit.num_qubits c1 > max_array_qubits then
    invalid_arg "Equiv.arrays: too many qubits for the array method";
  let u1 = Qdt_arraysim.Unitary_builder.unitary c1 in
  let u2 = Qdt_arraysim.Unitary_builder.unitary c2 in
  if Mat.equal_up_to_global_phase ~eps:1e-7 u1 u2 then Equivalent else Not_equivalent

(* A matrix DD is the identity up to phase iff its node is the identity
   chain's node (hash-consing makes this a pointer comparison) and its
   weight has unit magnitude. *)
let dd_is_identity_up_to_phase mgr edge n =
  let id = Qdt_dd.Build.identity mgr n in
  let same_node =
    match (edge.Qdt_dd.Pkg.target, id.Qdt_dd.Pkg.target) with
    | Qdt_dd.Pkg.Node a, Qdt_dd.Pkg.Node b -> a.Qdt_dd.Pkg.id = b.Qdt_dd.Pkg.id
    | Qdt_dd.Pkg.Terminal, Qdt_dd.Pkg.Terminal -> true
    | _ -> false
  in
  same_node && Float.abs (Cx.norm edge.Qdt_dd.Pkg.w -. 1.0) < 1e-7

let dd c1 c2 =
  Qdt_obs.Trace.with_span "verify.dd" @@ fun () ->
  require_same_arity c1 c2;
  let n = Circuit.num_qubits c1 in
  let mgr = Qdt_dd.Pkg.create () in
  let u1 = Qdt_dd.Build.circuit_unitary mgr c1 in
  (* Pin U1: building U2 may garbage-collect at instruction boundaries. *)
  Qdt_dd.Pkg.ref_edge mgr u1;
  let u2 = Qdt_dd.Build.circuit_unitary mgr c2 in
  let prod = Qdt_dd.Pkg.mul_mm mgr (Qdt_dd.Pkg.adjoint mgr u2) u1 in
  Qdt_dd.Pkg.unref_edge mgr u1;
  if dd_is_identity_up_to_phase mgr prod n then Equivalent else Not_equivalent

let dd_alternating c1 c2 =
  Qdt_obs.Trace.with_span "verify.dd-alternating" @@ fun () ->
  require_same_arity c1 c2;
  let n = Circuit.num_qubits c1 in
  let mgr = Qdt_dd.Pkg.create () in
  let gates1 = Array.of_list (Circuit.unitary_instructions c1) in
  let gates2 = Array.of_list (Circuit.unitary_instructions c2) in
  let m = Array.length gates1 and k = Array.length gates2 in
  let e = ref (Qdt_dd.Build.identity mgr n) in
  Qdt_dd.Pkg.ref_edge mgr !e;
  let advance e' =
    Qdt_dd.Pkg.ref_edge mgr e';
    Qdt_dd.Pkg.unref_edge mgr !e;
    e := e';
    Qdt_dd.Pkg.maybe_gc mgr
  in
  let i = ref 0 and j = ref 0 in
  (* Keep i/m ≈ j/k so E stays close to the identity throughout. *)
  while !i < m || !j < k do
    let take_left =
      if !i >= m then false
      else if !j >= k then true
      else !i * k <= !j * m
    in
    if take_left then begin
      let g = Qdt_dd.Build.instruction mgr ~num_qubits:n gates1.(!i) in
      advance (Qdt_dd.Pkg.mul_mm mgr g !e);
      incr i
    end
    else begin
      let h = Qdt_dd.Build.instruction mgr ~num_qubits:n gates2.(!j) in
      advance (Qdt_dd.Pkg.mul_mm mgr !e (Qdt_dd.Pkg.adjoint mgr h));
      incr j
    end
  done;
  Qdt_dd.Pkg.unref_edge mgr !e;
  if dd_is_identity_up_to_phase mgr !e n then Equivalent else Not_equivalent

let zx c1 c2 =
  Qdt_obs.Trace.with_span "verify.zx" @@ fun () ->
  require_same_arity c1 c2;
  let d = Qdt_zx.Translate.equivalence_diagram c1 c2 in
  let _report = Qdt_zx.Simplify.full_reduce d in
  match Qdt_zx.Simplify.is_identity_up_to_permutation d with
  | Some perm ->
      let identity = ref true in
      Array.iteri (fun q p -> if q <> p then identity := false) perm;
      if !identity then Equivalent else Not_equivalent
  | None -> Inconclusive

let tn c1 c2 =
  Qdt_obs.Trace.with_span "verify.tn" @@ fun () ->
  require_same_arity c1 c2;
  let n = Circuit.num_qubits c1 in
  let overlap, _stats = Qdt_tensornet.Circuit_tn.hilbert_schmidt_overlap c1 c2 in
  let target = Float.of_int (1 lsl n) in
  if Float.abs (Cx.norm overlap -. target) < 1e-6 *. target then Equivalent
  else Not_equivalent

let random_product_state_prep rng n =
  let c = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    let angle () = Random.State.float rng (2.0 *. Float.pi) in
    c := Circuit.u3 ~theta:(angle ()) ~phi:(angle ()) ~lambda:(angle ()) q !c
  done;
  !c

let basis_state_prep rng n =
  let c = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    if Random.State.bool rng then c := Circuit.x q !c
  done;
  !c

let simulation ?(seed = 0) ?(trials = 8) c1 c2 =
  Qdt_obs.Trace.with_span "verify.simulation" @@ fun () ->
  require_same_arity c1 c2;
  let n = Circuit.num_qubits c1 in
  let rng = Random.State.make [| seed |] in
  let mismatch = ref false in
  let trial t =
    let prep =
      if t = 0 then Circuit.empty n
      else if t mod 2 = 1 then basis_state_prep rng n
      else random_product_state_prep rng n
    in
    let mgr = Qdt_dd.Pkg.create () in
    let run c =
      let st = Qdt_dd.Sim.make mgr n in
      ignore
        (Circuit.execute (Circuit.append prep c) ~rng:(Random.State.make [| 0 |])
           (Qdt_dd.Sim.apply_instruction st));
      st
    in
    let s1 = run c1 and s2 = run c2 in
    if Float.abs (Qdt_dd.Sim.fidelity s1 s2 -. 1.0) > 1e-7 then mismatch := true
  in
  let t = ref 0 in
  while (not !mismatch) && !t < trials do
    trial !t;
    incr t
  done;
  if !mismatch then Not_equivalent else Inconclusive
