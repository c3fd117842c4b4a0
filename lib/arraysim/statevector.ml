open Qdt_linalg
open Qdt_circuit

(* The amplitudes live in one flat interleaved float buffer (amplitude k
   at offsets 2k / 2k+1 — the Vec layout, see vec.mli "Storage"), so the
   gate kernels below update pairs of raw floats in place and allocate
   nothing per gate.  [scratch] is a lazily grown buffer reused across
   calls that need a dim-sized temporary (sampling); its size is exported
   through the [qdt.sv.scratch_bytes] gauge. *)
type t = { n : int; buf : float array; mutable scratch : float array }

let g_scratch = Qdt_obs.Metrics.gauge "qdt.sv.scratch_bytes"
let p_state = Qdt_obs.Metrics.peak "sv.peak_state_bytes"
let p_scratch = Qdt_obs.Metrics.peak "sv.peak_scratch_bytes"

let scratch_floats sv n =
  if Array.length sv.scratch < n then begin
    sv.scratch <- Array.make n 0.0;
    Qdt_obs.Metrics.set g_scratch (float_of_int (8 * n));
    Qdt_obs.Metrics.raise_to_int p_scratch (8 * n)
  end;
  sv.scratch

let scratch_bytes sv = 8 * Array.length sv.scratch

let create n =
  if n < 1 || n > 26 then invalid_arg "Statevector.create: unsupported qubit count";
  let buf = Array.make (2 * (1 lsl n)) 0.0 in
  buf.(0) <- 1.0;
  Qdt_obs.Metrics.raise_to_int p_state (8 * Array.length buf);
  { n; buf; scratch = [||] }

(* Return to |0…0⟩ in place, keeping the state buffer and any grown
   scratch — the session-reuse path of the arrays backend. *)
let reset sv =
  Array.fill sv.buf 0 (Array.length sv.buf) 0.0;
  sv.buf.(0) <- 1.0

let of_vec n v =
  if Vec.length v <> 1 lsl n then invalid_arg "Statevector.of_vec: wrong length";
  Qdt_obs.Metrics.raise_to_int p_state (16 * Vec.length v);
  { n; buf = Array.copy (Vec.buffer v); scratch = [||] }

let to_vec sv = Vec.of_buffer (Array.copy sv.buf)

(* Zero-copy view: mutating the statevector mutates the returned vector. *)
let vec_view sv = Vec.of_buffer sv.buf

let overwrite sv v =
  if 2 * Vec.length v <> Array.length sv.buf then
    invalid_arg "Statevector.overwrite: length mismatch";
  Array.blit (Vec.buffer v) 0 sv.buf 0 (Array.length sv.buf)

let copy sv = { sv with buf = Array.copy sv.buf; scratch = [||] }
let num_qubits sv = sv.n

let amplitude sv k = { Cx.re = sv.buf.(2 * k); im = sv.buf.((2 * k) + 1) }

let probability sv k =
  let re = sv.buf.(2 * k) and im = sv.buf.((2 * k) + 1) in
  (re *. re) +. (im *. im)

let probabilities sv = Array.init (1 lsl sv.n) (probability sv)

(* The whole-state sweeps below (reductions, projections, rescaling) go
   through [Qdt_par.parallel_for] with the default chunk (2^14 indices):
   states of <= 14 qubits fit in one chunk and run serially inline, larger
   states split across the domain pool.  The gate kernels chunk their
   base indices the same way (see [sweep_bases]).

   Reductions use [chunked_sum]: one partial per fixed-boundary chunk,
   folded in chunk order.  [parallel_for] calls the body once per chunk
   on those boundaries whether the chunks run on the pool or on the
   caller (nested or busy), so the result is identical at any job count
   >= 2; at jobs = 1 the single-accumulator order is kept exactly. *)
let par_chunk = Qdt_par.default_chunk

let chunked_sum n partial =
  if n <= 0 then 0.0
  else if Qdt_par.jobs () <= 1 || n <= par_chunk then partial 0 n
  else begin
    let nchunks = (n + par_chunk - 1) / par_chunk in
    let partials = Array.make nchunks 0.0 in
    Qdt_par.parallel_for ~chunk:par_chunk 0 n (fun lo hi ->
        partials.(lo / par_chunk) <- partial lo hi);
    let acc = ref 0.0 in
    for c = 0 to nchunks - 1 do
      acc := !acc +. partials.(c)
    done;
    !acc
  end

(* Probabilities into [dst] (first [2^n] entries), no allocation. *)
let probabilities_into sv dst =
  Qdt_par.parallel_for ~chunk:par_chunk 0 (1 lsl sv.n) (fun lo hi ->
      for k = lo to hi - 1 do
        dst.(k) <- probability sv k
      done)

let norm2 sv =
  let buf = sv.buf in
  chunked_sum (Array.length buf) (fun lo hi ->
      let acc = ref 0.0 in
      for i = lo to hi - 1 do
        acc := !acc +. (buf.(i) *. buf.(i))
      done;
      !acc)

let norm sv = Float.sqrt (norm2 sv)

(* Gate kernels visit base indices only.  [fixed] holds a kernel's
   pinned bits: its gate bit(s), 0 at a base index, and its control
   bits, 1 there.  The base indices, in increasing order, are the
   reduced indices 0 .. 2^(n - |fixed|) - 1 with a zero inserted at each
   fixed position ([spread]), OR the control mask; [next] steps from one
   to the next, because setting the fixed bits first lets the +1's carry
   run through them.  No two base indices share an amplitude, so any
   chunking of the reduced range is race-free. *)
let spread fixed r =
  let k = ref r and f = ref fixed in
  while !f <> 0 do
    let low = !f land (- !f) in
    k := ((!k land lnot (low - 1)) lsl 1) lor (!k land (low - 1));
    f := !f land (!f - 1)
  done;
  !k

let[@inline] next fixed k = ((k lor fixed) + 1) land lnot fixed

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* The control mask of a kernel whose gate acts on the [gate] bits.
   Controls must be qubits of the state, distinct from the gate's. *)
let control_mask sv ~gate controls =
  let cmask = List.fold_left (fun mask q -> mask lor (1 lsl q)) 0 controls in
  if cmask land gate <> 0 || (cmask lor gate) lsr sv.n <> 0 then
    invalid_arg "Statevector: operands out of range or repeated";
  cmask

(* [sweep_bases sv fixed body] runs [body lo hi] over chunks of the
   reduced index range of [fixed].  A chunk of [2^14 lsr |fixed|]
   reduced indices covers one 2^14-index block of the state, so states of
   <= 14 qubits run inline and 15 and 16 qubits split into 2 and 4
   chunks of equal work, whichever bits the gate holds. *)
let sweep_bases sv fixed body =
  let bits = popcount fixed in
  Qdt_par.parallel_for ~chunk:(max 1 (par_chunk lsr bits)) 0 (1 lsl (sv.n - bits)) body

(* Core kernel: for every base index k (target bit 0, control bits 1),
   update the (k, k + 2^target) amplitude pair over the raw floats.

   Diagonal (Z, S, T, Rz, phase) and anti-diagonal (X, Y) gates get a fast
   path: one complex multiply per amplitude instead of the full 2x2
   combine, and a diagonal entry of exactly 1 is skipped.  The gate
   constructors in {!Qdt_linalg.Gates} place exact [Cx.zero] in the
   off/on-diagonal entries, so an exact test suffices — a matrix that is
   merely numerically close keeps the general kernel.  The matrix is read
   into locals once per chunk, as in [apply_matrix2]. *)
let apply_matrix sv m ~controls ~target =
  if Mat.rows m <> 2 || Mat.cols m <> 2 then
    invalid_arg "Statevector.apply_matrix: need a 2x2 matrix";
  let mb = Mat.buffer m in
  let stride = 1 lsl target in
  let cmask = control_mask sv ~gate:stride controls in
  let fixed = stride lor cmask in
  let d = 2 * stride in
  let buf = sv.buf in
  let zero i = mb.(i) = 0.0 && mb.(i + 1) = 0.0 in
  if zero 2 && zero 4 then begin
    (* Diagonal: amp(k) picks up u00 or u11 from its target bit alone. *)
    let skip00 = mb.(0) = 1.0 && mb.(1) = 0.0 in
    let skip11 = mb.(6) = 1.0 && mb.(7) = 0.0 in
    sweep_bases sv fixed (fun lo hi ->
        let u00r = mb.(0) and u00i = mb.(1) and u11r = mb.(6) and u11i = mb.(7) in
        let k = ref (spread fixed lo) in
        for _ = lo to hi - 1 do
          let o = 2 * (!k lor cmask) in
          if not skip00 then begin
            let ar = buf.(o) and ai = buf.(o + 1) in
            buf.(o) <- (u00r *. ar) -. (u00i *. ai);
            buf.(o + 1) <- (u00r *. ai) +. (u00i *. ar)
          end;
          if not skip11 then begin
            let o = o + d in
            let ar = buf.(o) and ai = buf.(o + 1) in
            buf.(o) <- (u11r *. ar) -. (u11i *. ai);
            buf.(o + 1) <- (u11r *. ai) +. (u11i *. ar)
          end;
          k := next fixed !k
        done)
  end
  else if zero 0 && zero 6 then
    (* Anti-diagonal: the pair swaps with scaling; one multiply each. *)
    sweep_bases sv fixed (fun lo hi ->
        let u01r = mb.(2) and u01i = mb.(3) and u10r = mb.(4) and u10i = mb.(5) in
        let k = ref (spread fixed lo) in
        for _ = lo to hi - 1 do
          let o0 = 2 * (!k lor cmask) in
          let o1 = o0 + d in
          let a0r = buf.(o0) and a0i = buf.(o0 + 1) in
          let a1r = buf.(o1) and a1i = buf.(o1 + 1) in
          buf.(o0) <- (u01r *. a1r) -. (u01i *. a1i);
          buf.(o0 + 1) <- (u01r *. a1i) +. (u01i *. a1r);
          buf.(o1) <- (u10r *. a0r) -. (u10i *. a0i);
          buf.(o1 + 1) <- (u10r *. a0i) +. (u10i *. a0r);
          k := next fixed !k
        done)
  else
    sweep_bases sv fixed (fun lo hi ->
        let u00r = mb.(0) and u00i = mb.(1) and u01r = mb.(2) and u01i = mb.(3) in
        let u10r = mb.(4) and u10i = mb.(5) and u11r = mb.(6) and u11i = mb.(7) in
        let k = ref (spread fixed lo) in
        for _ = lo to hi - 1 do
          let o0 = 2 * (!k lor cmask) in
          let o1 = o0 + d in
          let a0r = buf.(o0) and a0i = buf.(o0 + 1) in
          let a1r = buf.(o1) and a1i = buf.(o1 + 1) in
          buf.(o0) <- (u00r *. a0r) -. (u00i *. a0i) +. ((u01r *. a1r) -. (u01i *. a1i));
          buf.(o0 + 1) <- (u00r *. a0i) +. (u00i *. a0r) +. ((u01r *. a1i) +. (u01i *. a1r));
          buf.(o1) <- (u10r *. a0r) -. (u10i *. a0i) +. ((u11r *. a1r) -. (u11i *. a1i));
          buf.(o1 + 1) <- (u10r *. a0i) +. (u10i *. a0r) +. ((u11r *. a1i) +. (u11i *. a1r));
          k := next fixed !k
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
  let cmask = control_mask sv ~gate:(b0 lor b1) controls in
  let fixed = b0 lor b1 lor cmask in
  let d1 = 2 * b0 and d2 = 2 * b1 in
  let d3 = d1 + d2 in
  let buf = sv.buf in
  sweep_bases sv fixed (fun lo hi ->
      let m00r = mb.(0) and m00i = mb.(1) and m01r = mb.(2) and m01i = mb.(3) in
      let m02r = mb.(4) and m02i = mb.(5) and m03r = mb.(6) and m03i = mb.(7) in
      let m10r = mb.(8) and m10i = mb.(9) and m11r = mb.(10) and m11i = mb.(11) in
      let m12r = mb.(12) and m12i = mb.(13) and m13r = mb.(14) and m13i = mb.(15) in
      let m20r = mb.(16) and m20i = mb.(17) and m21r = mb.(18) and m21i = mb.(19) in
      let m22r = mb.(20) and m22i = mb.(21) and m23r = mb.(22) and m23i = mb.(23) in
      let m30r = mb.(24) and m30i = mb.(25) and m31r = mb.(26) and m31i = mb.(27) in
      let m32r = mb.(28) and m32i = mb.(29) and m33r = mb.(30) and m33i = mb.(31) in
      let k = ref (spread fixed lo) in
      for _ = lo to hi - 1 do
        let o0 = 2 * (!k lor cmask) in
        let o1 = o0 + d1 and o2 = o0 + d2 and o3 = o0 + d3 in
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
          +. ((m33r *. a3i) +. (m33i *. a3r));
        k := next fixed !k
      done)

let apply_gate sv gate ~controls ~target =
  apply_matrix sv (Gate.matrix gate) ~controls ~target

(* Swaps the amplitudes of each base index with bit [a] set and the one
   with bit [b] set; the (0,0) and (1,1) amplitudes stay. *)
let apply_swap sv ~controls a b =
  let ba = 1 lsl a and bb = 1 lsl b in
  let cmask = control_mask sv ~gate:(ba lor bb) controls in
  let fixed = ba lor bb lor cmask in
  let da = 2 * ba and db = 2 * bb in
  let buf = sv.buf in
  sweep_bases sv fixed (fun lo hi ->
      let k = ref (spread fixed lo) in
      for _ = lo to hi - 1 do
        let o = 2 * (!k lor cmask) in
        let ok = o + da and op = o + db in
        let tr = buf.(ok) and ti = buf.(ok + 1) in
        buf.(ok) <- buf.(op);
        buf.(ok + 1) <- buf.(op + 1);
        buf.(op) <- tr;
        buf.(op + 1) <- ti;
        k := next fixed !k
      done)

let rescale sv s =
  let buf = sv.buf in
  Qdt_par.parallel_for ~chunk:par_chunk 0 (Array.length buf) (fun lo hi ->
      for i = lo to hi - 1 do
        buf.(i) <- s *. buf.(i)
      done)

let renormalise sv =
  let n = norm sv in
  if n < 1e-14 then invalid_arg "Statevector: state collapsed to zero norm";
  rescale sv (1.0 /. n)

(* [kraus_weight sv k ~target] is ‖K|ψ⟩‖² for a single-qubit Kraus
   operator [K] on [target], computed by pure arithmetic over the pairs —
   no copy of the state, no allocation.  Used by the trajectory sampler
   to pick a branch before committing to the in-place application. *)
let kraus_weight sv m ~target =
  if Mat.rows m <> 2 || Mat.cols m <> 2 then
    invalid_arg "Statevector.kraus_weight: need a 2x2 matrix";
  let mb = Mat.buffer m in
  let u00r = mb.(0) and u00i = mb.(1) and u01r = mb.(2) and u01i = mb.(3) in
  let u10r = mb.(4) and u10i = mb.(5) and u11r = mb.(6) and u11i = mb.(7) in
  let stride = 1 lsl target in
  let buf = sv.buf in
  chunked_sum (1 lsl sv.n) (fun lo hi ->
      let acc = ref 0.0 in
      for k = lo to hi - 1 do
        if k land stride = 0 then begin
          let o0 = 2 * k and o1 = 2 * (k + stride) in
          let a0r = buf.(o0) and a0i = buf.(o0 + 1) in
          let a1r = buf.(o1) and a1i = buf.(o1 + 1) in
          let n0r = (u00r *. a0r) -. (u00i *. a0i) +. ((u01r *. a1r) -. (u01i *. a1i)) in
          let n0i = (u00r *. a0i) +. (u00i *. a0r) +. ((u01r *. a1i) +. (u01i *. a1r)) in
          let n1r = (u10r *. a0r) -. (u10i *. a0i) +. ((u11r *. a1r) -. (u11i *. a1i)) in
          let n1i = (u10r *. a0i) +. (u10i *. a0r) +. ((u11r *. a1i) +. (u11i *. a1r)) in
          acc := !acc +. (n0r *. n0r) +. (n0i *. n0i) +. (n1r *. n1r) +. (n1i *. n1i)
        end
      done;
      !acc)

let project sv q bit =
  let mask = 1 lsl q in
  let buf = sv.buf in
  Qdt_par.parallel_for ~chunk:par_chunk 0 (1 lsl sv.n) (fun lo hi ->
      for k = lo to hi - 1 do
        let has = if k land mask <> 0 then 1 else 0 in
        if has <> bit then begin
          buf.(2 * k) <- 0.0;
          buf.((2 * k) + 1) <- 0.0
        end
      done)

let prob_of_bit sv q bit =
  let mask = 1 lsl q in
  chunked_sum (1 lsl sv.n) (fun lo hi ->
      let acc = ref 0.0 in
      for k = lo to hi - 1 do
        let has = if k land mask <> 0 then 1 else 0 in
        if has = bit then acc := !acc +. probability sv k
      done;
      !acc)

let measure_qubit sv ~rng q =
  let p1 = prob_of_bit sv q 1 in
  let bit = if Random.State.float rng 1.0 < p1 then 1 else 0 in
  project sv q bit;
  renormalise sv;
  bit

(* Observability: instruments are bound once at module init, and the trace
   brackets are manual [emit_begin]/[emit_end] pairs — no closure allocation
   on the per-instruction path, one flag check each when disabled. *)
let m_gates = Qdt_obs.Metrics.counter "sv.gates"
let m_measurements = Qdt_obs.Metrics.counter "sv.measurements"

let rec apply_instruction sv instr ~rng ~clbits =
  match instr with
  | Circuit.If { value; instr } ->
      if Circuit.creg_value clbits = value then apply_instruction sv instr ~rng ~clbits
  | Circuit.Apply { gate; controls; target } ->
      Qdt_obs.Trace.emit_begin "sv.gate";
      Qdt_obs.Metrics.incr m_gates;
      apply_gate sv gate ~controls ~target;
      Qdt_obs.Trace.emit_end "sv.gate"
  | Circuit.Swap { controls; a; b } ->
      Qdt_obs.Trace.emit_begin "sv.gate";
      Qdt_obs.Metrics.incr m_gates;
      apply_swap sv ~controls a b;
      Qdt_obs.Trace.emit_end "sv.gate"
  | Circuit.Measure { qubit; clbit } ->
      Qdt_obs.Trace.emit_begin "sv.measure";
      Qdt_obs.Metrics.incr m_measurements;
      clbits.(clbit) <- measure_qubit sv ~rng qubit;
      Qdt_obs.Trace.emit_end "sv.measure"
  | Circuit.Reset q ->
      Qdt_obs.Trace.emit_begin "sv.reset";
      let bit = measure_qubit sv ~rng q in
      if bit = 1 then apply_gate sv Gate.X ~controls:[] ~target:q;
      Qdt_obs.Trace.emit_end "sv.reset"
  | Circuit.Barrier _ -> ()

let run ?(seed = 0) circuit =
  let sv = create (Circuit.num_qubits circuit) in
  let clbits =
    Circuit.execute circuit ~rng:(Random.State.make [| seed |]) (apply_instruction sv)
  in
  (sv, clbits)

let run_unitary circuit =
  if not (Circuit.is_unitary_only circuit) then
    invalid_arg "Statevector.run_unitary: circuit measures or resets";
  fst (run circuit)

let expectation_z sv q =
  let mask = 1 lsl q in
  chunked_sum (1 lsl sv.n) (fun lo hi ->
      let acc = ref 0.0 in
      for k = lo to hi - 1 do
        let p = probability sv k in
        if k land mask = 0 then acc := !acc +. p else acc := !acc -. p
      done;
      !acc)

let sample ?(seed = 0) sv ~shots =
  Qdt_obs.Trace.with_span "sv.sample" @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let dim = 1 lsl sv.n in
  (* The probability table lives in the reusable scratch buffer — repeated
     sampling allocates nothing beyond the counts table.  It becomes its
     running sum in place, added in index order exactly as a linear scan
     adds it, so the first entry >= r found by bisection is the outcome
     the scan would pick (dim - 1 when no entry reaches r). *)
  let cdf = scratch_floats sv dim in
  probabilities_into sv cdf;
  let acc = ref 0.0 in
  for k = 0 to dim - 1 do
    acc := !acc +. cdf.(k);
    cdf.(k) <- !acc
  done;
  let counts = Hashtbl.create 64 in
  for _shot = 1 to shots do
    let r = Random.State.float rng 1.0 in
    let lo = ref 0 and hi = ref dim in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if cdf.(mid) >= r then hi := mid else lo := mid + 1
    done;
    let chosen = if !lo = dim then dim - 1 else !lo in
    Hashtbl.replace counts chosen
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts chosen))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fidelity a b =
  if a.n <> b.n then invalid_arg "Statevector.fidelity: size mismatch";
  Vec.fidelity (vec_view a) (vec_view b)

let memory_bytes sv = 8 * Array.length sv.buf

let bitstring n k = String.init n (fun i -> if k land (1 lsl (n - 1 - i)) <> 0 then '1' else '0')

let pp ppf sv =
  Format.fprintf ppf "@[<v 0>";
  for k = 0 to (1 lsl sv.n) - 1 do
    let z = amplitude sv k in
    if not (Cx.is_zero ~eps:1e-12 z) then
      Format.fprintf ppf "|%s⟩: %a@," (bitstring sv.n k) Cx.pp z
  done;
  Format.fprintf ppf "@]"
