(* The statevector gate kernels as they were before they walked base
   indices only: every kernel scans all 2^n indices and tests masks per
   index.  Kept verbatim (apart from the state record) as the bit-level
   oracle for the base-index kernels; see test_arraysim's "kernels"
   cases. *)
open Qdt_linalg

type t = { n : int; buf : float array }

(* A copy of [v]'s amplitudes on [n] qubits. *)
let of_vec n v = { n; buf = Array.copy (Vec.buffer v) }

let par_chunk = Qdt_par.default_chunk

let control_mask controls =
  List.fold_left (fun mask q -> mask lor (1 lsl q)) 0 controls

(* Core kernel: iterate over all basis indices with target bit 0 and all
   control bits 1, updating the (k, k + 2^target) amplitude pair over the
   raw floats.

   Diagonal (Z, S, T, Rz, phase) and anti-diagonal (X, Y) gates get a fast
   path: one complex multiply per amplitude instead of the full 2x2
   combine.  The gate constructors in {!Qdt_linalg.Gates} place exact
   [Cx.zero] in the off/on-diagonal entries, so an exact test suffices —
   a matrix that is merely numerically close keeps the general kernel. *)
let apply_matrix sv m ~controls ~target =
  if Mat.rows m <> 2 || Mat.cols m <> 2 then
    invalid_arg "Statevector.apply_matrix: need a 2x2 matrix";
  let mb = Mat.buffer m in
  let u00r = mb.(0) and u00i = mb.(1) and u01r = mb.(2) and u01i = mb.(3) in
  let u10r = mb.(4) and u10i = mb.(5) and u11r = mb.(6) and u11i = mb.(7) in
  let stride = 1 lsl target in
  let cmask = control_mask controls in
  let buf = sv.buf in
  let size = 1 lsl sv.n in
  if u01r = 0.0 && u01i = 0.0 && u10r = 0.0 && u10i = 0.0 then begin
    (* Diagonal: amp(k) picks up u00 or u11 from its target bit alone. *)
    let skip00 = u00r = 1.0 && u00i = 0.0 in
    let skip11 = u11r = 1.0 && u11i = 0.0 in
    Qdt_par.parallel_for ~chunk:par_chunk 0 size (fun lo hi ->
        for k = lo to hi - 1 do
          if k land cmask = cmask then
            if k land stride = 0 then begin
              if not skip00 then begin
                let o = 2 * k in
                let ar = buf.(o) and ai = buf.(o + 1) in
                buf.(o) <- (u00r *. ar) -. (u00i *. ai);
                buf.(o + 1) <- (u00r *. ai) +. (u00i *. ar)
              end
            end
            else if not skip11 then begin
              let o = 2 * k in
              let ar = buf.(o) and ai = buf.(o + 1) in
              buf.(o) <- (u11r *. ar) -. (u11i *. ai);
              buf.(o + 1) <- (u11r *. ai) +. (u11i *. ar)
            end
        done)
  end
  else if u00r = 0.0 && u00i = 0.0 && u11r = 0.0 && u11i = 0.0 then
    (* Anti-diagonal: the pair swaps with scaling; one multiply each. *)
    Qdt_par.parallel_for ~chunk:par_chunk 0 size (fun lo hi ->
        for k = lo to hi - 1 do
          if k land stride = 0 && k land cmask = cmask then begin
            let o0 = 2 * k and o1 = 2 * (k + stride) in
            let a0r = buf.(o0) and a0i = buf.(o0 + 1) in
            let a1r = buf.(o1) and a1i = buf.(o1 + 1) in
            buf.(o0) <- (u01r *. a1r) -. (u01i *. a1i);
            buf.(o0 + 1) <- (u01r *. a1i) +. (u01i *. a1r);
            buf.(o1) <- (u10r *. a0r) -. (u10i *. a0i);
            buf.(o1 + 1) <- (u10r *. a0i) +. (u10i *. a0r)
          end
        done)
  else
    Qdt_par.parallel_for ~chunk:par_chunk 0 size (fun lo hi ->
        for k = lo to hi - 1 do
          if k land stride = 0 && k land cmask = cmask then begin
            let o0 = 2 * k and o1 = 2 * (k + stride) in
            let a0r = buf.(o0) and a0i = buf.(o0 + 1) in
            let a1r = buf.(o1) and a1i = buf.(o1 + 1) in
            buf.(o0) <- (u00r *. a0r) -. (u00i *. a0i) +. ((u01r *. a1r) -. (u01i *. a1i));
            buf.(o0 + 1) <- (u00r *. a0i) +. (u00i *. a0r) +. ((u01r *. a1i) +. (u01i *. a1r));
            buf.(o1) <- (u10r *. a0r) -. (u10i *. a0i) +. ((u11r *. a1r) -. (u11i *. a1i));
            buf.(o1 + 1) <- (u10r *. a0i) +. (u10i *. a0r) +. ((u11r *. a1i) +. (u11i *. a1r))
          end
        done)

(* Fused two-qubit kernel: one pass applying a dense 4x4 to every
   (q0, q1) amplitude quadruple.  Matrix index convention matches
   {!Unitary_builder.instruction_matrix} on 2 qubits: bit 0 of the matrix
   index is qubit [q0], bit 1 is qubit [q1].  Entry (j, l) is read into
   the locals [mjlr]/[mjli] once per chunk and every row sum is written
   out inline, so no closure captures an amplitude and the loop
   allocates nothing per quadruple. *)
let apply_matrix2 sv m ~controls ~q0 ~q1 =
  if Mat.rows m <> 4 || Mat.cols m <> 4 then
    invalid_arg "Statevector.apply_matrix2: need a 4x4 matrix";
  if q0 = q1 then invalid_arg "Statevector.apply_matrix2: distinct qubits required";
  let mb = Mat.buffer m in
  let b0 = 1 lsl q0 and b1 = 1 lsl q1 in
  let pair_mask = b0 lor b1 in
  let cmask = control_mask controls in
  let buf = sv.buf in
  let size = 1 lsl sv.n in
  Qdt_par.parallel_for ~chunk:par_chunk 0 size (fun lo hi ->
      let m00r = mb.(0) and m00i = mb.(1) and m01r = mb.(2) and m01i = mb.(3) in
      let m02r = mb.(4) and m02i = mb.(5) and m03r = mb.(6) and m03i = mb.(7) in
      let m10r = mb.(8) and m10i = mb.(9) and m11r = mb.(10) and m11i = mb.(11) in
      let m12r = mb.(12) and m12i = mb.(13) and m13r = mb.(14) and m13i = mb.(15) in
      let m20r = mb.(16) and m20i = mb.(17) and m21r = mb.(18) and m21i = mb.(19) in
      let m22r = mb.(20) and m22i = mb.(21) and m23r = mb.(22) and m23i = mb.(23) in
      let m30r = mb.(24) and m30i = mb.(25) and m31r = mb.(26) and m31i = mb.(27) in
      let m32r = mb.(28) and m32i = mb.(29) and m33r = mb.(30) and m33i = mb.(31) in
      for k = lo to hi - 1 do
        if k land pair_mask = 0 && k land cmask = cmask then begin
          let o0 = 2 * k
          and o1 = 2 * (k + b0)
          and o2 = 2 * (k + b1)
          and o3 = 2 * (k + b0 + b1) in
          let a0r = buf.(o0) and a0i = buf.(o0 + 1) in
          let a1r = buf.(o1) and a1i = buf.(o1 + 1) in
          let a2r = buf.(o2) and a2i = buf.(o2 + 1) in
          let a3r = buf.(o3) and a3i = buf.(o3 + 1) in
          buf.(o0) <-
            (m00r *. a0r) -. (m00i *. a0i)
            +. ((m01r *. a1r) -. (m01i *. a1i))
            +. ((m02r *. a2r) -. (m02i *. a2i))
            +. ((m03r *. a3r) -. (m03i *. a3i));
          buf.(o0 + 1) <-
            (m00r *. a0i) +. (m00i *. a0r)
            +. ((m01r *. a1i) +. (m01i *. a1r))
            +. ((m02r *. a2i) +. (m02i *. a2r))
            +. ((m03r *. a3i) +. (m03i *. a3r));
          buf.(o1) <-
            (m10r *. a0r) -. (m10i *. a0i)
            +. ((m11r *. a1r) -. (m11i *. a1i))
            +. ((m12r *. a2r) -. (m12i *. a2i))
            +. ((m13r *. a3r) -. (m13i *. a3i));
          buf.(o1 + 1) <-
            (m10r *. a0i) +. (m10i *. a0r)
            +. ((m11r *. a1i) +. (m11i *. a1r))
            +. ((m12r *. a2i) +. (m12i *. a2r))
            +. ((m13r *. a3i) +. (m13i *. a3r));
          buf.(o2) <-
            (m20r *. a0r) -. (m20i *. a0i)
            +. ((m21r *. a1r) -. (m21i *. a1i))
            +. ((m22r *. a2r) -. (m22i *. a2i))
            +. ((m23r *. a3r) -. (m23i *. a3i));
          buf.(o2 + 1) <-
            (m20r *. a0i) +. (m20i *. a0r)
            +. ((m21r *. a1i) +. (m21i *. a1r))
            +. ((m22r *. a2i) +. (m22i *. a2r))
            +. ((m23r *. a3i) +. (m23i *. a3r));
          buf.(o3) <-
            (m30r *. a0r) -. (m30i *. a0i)
            +. ((m31r *. a1r) -. (m31i *. a1i))
            +. ((m32r *. a2r) -. (m32i *. a2i))
            +. ((m33r *. a3r) -. (m33i *. a3i));
          buf.(o3 + 1) <-
            (m30r *. a0i) +. (m30i *. a0r)
            +. ((m31r *. a1i) +. (m31i *. a1r))
            +. ((m32r *. a2i) +. (m32i *. a2r))
            +. ((m33r *. a3i) +. (m33i *. a3r))
        end
      done)

let apply_swap sv ~controls a b =
  let cmask = control_mask controls in
  let ba = 1 lsl a and bb = 1 lsl b in
  let buf = sv.buf in
  Qdt_par.parallel_for ~chunk:par_chunk 0 (1 lsl sv.n) (fun lo hi ->
      for k = lo to hi - 1 do
        (* Swap amplitudes of index pairs that differ as (a=1,b=0) ↔ (a=0,b=1);
           visiting only the (a=1,b=0) representative avoids double swaps. *)
        if k land ba <> 0 && k land bb = 0 && k land cmask = cmask then begin
          let partner = k lxor ba lxor bb in
          let ok = 2 * k and op = 2 * partner in
          let tr = buf.(ok) and ti = buf.(ok + 1) in
          buf.(ok) <- buf.(op);
          buf.(ok + 1) <- buf.(op + 1);
          buf.(op) <- tr;
          buf.(op + 1) <- ti
        end
      done)

