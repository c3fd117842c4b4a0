open Qdt_linalg
open Qdt_circuit

(* Site tensor A[l][p][r]: left bond, physical bit, right bond; stored
   row-major in one flat interleaved float buffer — entry (l, p, r) at
   linear offset ((l*2 + p) * dr + r), float pair at twice that (the
   {!Qdt_linalg.Vec} layout).  The two-qubit hot path below moves raw
   float pairs only; [Cx.t] survives in the cold contraction helpers. *)
type site = { dl : int; dr : int; data : float array }

type t = {
  n : int;
  sites : site array;
  mutable dropped : float;
  (* Reused theta workspace for {!apply_gate2}; grown geometrically, never
     shrunk, so steady-state gate application allocates only the exact
     theta' handed off to the SVD. *)
  mutable scratch : float array;
}

let site_get s l p r =
  let o = 2 * ((((l * 2) + p) * s.dr) + r) in
  { Cx.re = s.data.(o); im = s.data.(o + 1) }

let create n =
  if n < 1 then invalid_arg "Mps.create: need n >= 1";
  let site0 =
    let data = Array.make 4 0.0 in
    data.(0) <- 1.0;
    { dl = 1; dr = 1; data }
  in
  { n; sites = Array.init n (fun _ -> site0); dropped = 0.0; scratch = [||] }

let num_qubits mps = mps.n

let bond_dims mps =
  Array.init (mps.n - 1) (fun k -> mps.sites.(k).dr)

let max_bond_dim mps =
  Array.fold_left (fun acc s -> max acc (max s.dl s.dr)) 1 mps.sites

let truncation_error mps = mps.dropped

let memory_bytes mps =
  Array.fold_left (fun acc s -> acc + (8 * Array.length s.data)) 0 mps.sites

let apply_gate1 mps u q =
  if Mat.rows u <> 2 || Mat.cols u <> 2 then invalid_arg "Mps.apply_gate1: need 2x2";
  if q < 0 || q >= mps.n then invalid_arg "Mps.apply_gate1: qubit out of range";
  let s = mps.sites.(q) in
  let ub = Mat.buffer u in
  let u00r = ub.(0) and u00i = ub.(1) and u01r = ub.(2) and u01i = ub.(3) in
  let u10r = ub.(4) and u10i = ub.(5) and u11r = ub.(6) and u11i = ub.(7) in
  let sd = s.data in
  let data = Array.make (Array.length sd) 0.0 in
  (* For each (l, r) the physical pair sits [2·dr] floats apart. *)
  for l = 0 to s.dl - 1 do
    let base = 2 * l * 2 * s.dr in
    for r = 0 to s.dr - 1 do
      let o0 = base + (2 * r) in
      let o1 = o0 + (2 * s.dr) in
      let a0r = sd.(o0) and a0i = sd.(o0 + 1) in
      let a1r = sd.(o1) and a1i = sd.(o1 + 1) in
      data.(o0) <- (u00r *. a0r) -. (u00i *. a0i) +. ((u01r *. a1r) -. (u01i *. a1i));
      data.(o0 + 1) <- (u00r *. a0i) +. (u00i *. a0r) +. ((u01r *. a1i) +. (u01i *. a1r));
      data.(o1) <- (u10r *. a0r) -. (u10i *. a0i) +. ((u11r *. a1r) -. (u11i *. a1i));
      data.(o1 + 1) <- (u10r *. a0i) +. (u10i *. a0r) +. ((u11r *. a1i) +. (u11i *. a1r))
    done
  done;
  mps.sites.(q) <- { s with data }

(* Observability: instruments bound once at module init.  The two-qubit
   apply is the MPS hot path; the bond-dimension histogram records the
   kept rank after every SVD truncation. *)
let m_gates2 = Qdt_obs.Metrics.counter "mps.gates2"
let m_bond = Qdt_obs.Metrics.histogram "mps.bond_dim"
let p_bond = Qdt_obs.Metrics.peak "mps.peak_bond_dim"
let p_trunc = Qdt_obs.Metrics.peak "mps.peak_truncation_error"

let scratch_floats mps n =
  if Array.length mps.scratch < n then mps.scratch <- Array.make n 0.0;
  mps.scratch

let apply_gate2 mps ?(max_bond = max_int) ?(cutoff = 1e-12) u q =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then invalid_arg "Mps.apply_gate2: need 4x4";
  if q < 0 || q + 1 >= mps.n then invalid_arg "Mps.apply_gate2: pair out of range";
  Qdt_obs.Trace.emit_begin "mps.apply2";
  Qdt_obs.Metrics.incr m_gates2;
  let a = mps.sites.(q) and b = mps.sites.(q + 1) in
  assert (a.dr = b.dl);
  let dl = a.dl and dm = a.dr and dr = b.dr in
  let len = dl * 4 * dr in
  (* theta[l][p0][p1][r] = Σ_m A[l][p0][m] · B[m][p1][r]; the float pair of
     (l, p0, p1, r) sits at 2·((((l·2 + p0)·2 + p1)·dr) + r).  theta lives
     in the reused scratch buffer. *)
  let theta = scratch_floats mps (2 * len) in
  Array.fill theta 0 (2 * len) 0.0;
  let ad = a.data and bd = b.data in
  for l = 0 to dl - 1 do
    for p0 = 0 to 1 do
      let arow = 2 * (((l * 2) + p0) * dm) in
      let trow = 2 * (((l * 2) + p0) * 2 * dr) in
      for m = 0 to dm - 1 do
        let avr = ad.(arow + (2 * m)) and avi = ad.(arow + (2 * m) + 1) in
        if avr <> 0.0 || avi <> 0.0 then
          for p1 = 0 to 1 do
            let brow = 2 * (((m * 2) + p1) * dr) in
            let torow = trow + (2 * p1 * dr) in
            for r = 0 to dr - 1 do
              let bvr = bd.(brow + (2 * r)) and bvi = bd.(brow + (2 * r) + 1) in
              theta.(torow + (2 * r)) <-
                theta.(torow + (2 * r)) +. ((avr *. bvr) -. (avi *. bvi));
              theta.(torow + (2 * r) + 1) <-
                theta.(torow + (2 * r) + 1) +. ((avr *. bvi) +. (avi *. bvr))
            done
          done
      done
    done
  done;
  (* Gate application: matrix index is p1·2 + p0 (bit 0 = qubit q).  The
     result goes to a fresh exact-size buffer whose layout — rows (l, p0),
     cols (p1, r) — is precisely the row-major (dl·2) × (2·dr) matrix the
     SVD wants, so the matrix below adopts it without copying. *)
  let theta' = Array.make (2 * len) 0.0 in
  let ub = Mat.buffer u in
  for l = 0 to dl - 1 do
    let lbase = 2 * (l * 4 * dr) in
    for r = 0 to dr - 1 do
      (* offsets of (p0, p1) = (0,0), (1,0), (0,1), (1,1) — matrix index
         order 0, 1, 2, 3 — for this (l, r) *)
      let o0 = lbase + (2 * r) in
      let o1 = o0 + (2 * 2 * dr) in
      let o2 = o0 + (2 * dr) in
      let o3 = o1 + (2 * dr) in
      let a0r = theta.(o0) and a0i = theta.(o0 + 1) in
      let a1r = theta.(o1) and a1i = theta.(o1 + 1) in
      let a2r = theta.(o2) and a2i = theta.(o2 + 1) in
      let a3r = theta.(o3) and a3i = theta.(o3 + 1) in
      let row_re j =
        let bse = 8 * j in
        (ub.(bse) *. a0r) -. (ub.(bse + 1) *. a0i)
        +. ((ub.(bse + 2) *. a1r) -. (ub.(bse + 3) *. a1i))
        +. ((ub.(bse + 4) *. a2r) -. (ub.(bse + 5) *. a2i))
        +. ((ub.(bse + 6) *. a3r) -. (ub.(bse + 7) *. a3i))
      and row_im j =
        let bse = 8 * j in
        (ub.(bse) *. a0i) +. (ub.(bse + 1) *. a0r)
        +. ((ub.(bse + 2) *. a1i) +. (ub.(bse + 3) *. a1r))
        +. ((ub.(bse + 4) *. a2i) +. (ub.(bse + 5) *. a2r))
        +. ((ub.(bse + 6) *. a3i) +. (ub.(bse + 7) *. a3r))
      in
      theta'.(o0) <- row_re 0;
      theta'.(o0 + 1) <- row_im 0;
      theta'.(o1) <- row_re 1;
      theta'.(o1 + 1) <- row_im 1;
      theta'.(o2) <- row_re 2;
      theta'.(o2 + 1) <- row_im 2;
      theta'.(o3) <- row_re 3;
      theta'.(o3 + 1) <- row_im 3
    done
  done;
  (* Split with SVD: rows (l, p0), cols (p1, r). *)
  let m = Mat.of_buffer ~rows:(dl * 2) ~cols:(2 * dr) theta' in
  Qdt_obs.Trace.emit_begin "mps.svd";
  let d = Svd.decompose m in
  let truncated, dropped = Svd.truncate ~max_rank:max_bond ~cutoff d in
  Qdt_obs.Trace.emit_end "mps.svd";
  mps.dropped <- mps.dropped +. dropped;
  (* The truncation-error peak tracks the accumulated dropped weight
     (monotone per state), so its peak is the worst cumulative error any
     state reached during the run. *)
  Qdt_obs.Metrics.raise_to p_trunc mps.dropped;
  let k = Array.length truncated.Svd.sigma in
  Qdt_obs.Metrics.observe m_bond k;
  Qdt_obs.Metrics.raise_to_int p_bond k;
  (* Both factors come out of [Svd.truncate] freshly allocated with
     exactly the site layouts we need — adopt their buffers.  Left site:
     u is (dl·2) × k row-major = (l, p0, rk).  Right site: fold the
     singular values into vdag's rows in place; k × (2·dr) row-major =
     (rk, p1, r). *)
  let b_data = Mat.buffer truncated.Svd.vdag in
  for rk = 0 to k - 1 do
    let s = truncated.Svd.sigma.(rk) in
    let row = 2 * rk * 2 * dr in
    for i = row to row + (4 * dr) - 1 do
      b_data.(i) <- s *. b_data.(i)
    done
  done;
  mps.sites.(q) <- { dl; dr = k; data = Mat.buffer truncated.Svd.u };
  mps.sites.(q + 1) <- { dl = k; dr; data = b_data };
  Qdt_obs.Trace.emit_end "mps.apply2"

let swap_matrix = Gates.swap

let rec apply_instruction mps ?max_bond ?cutoff instr =
  match instr with
  | Circuit.Barrier _ -> ()
  | Circuit.Measure _ | Circuit.Reset _ | Circuit.If _ ->
      invalid_arg "Mps.apply_instruction: non-unitary instruction"
  | Circuit.Apply { gate; controls = []; target } ->
      apply_gate1 mps (Gate.matrix gate) target
  | Circuit.Apply { gate = _; controls = _ :: _ :: _; _ } ->
      invalid_arg "Mps.apply_instruction: gates on 3+ qubits not supported"
  | Circuit.Swap { controls = _ :: _; _ } ->
      invalid_arg "Mps.apply_instruction: gates on 3+ qubits not supported"
  | Circuit.Apply { gate; controls = [ ctl ]; target } ->
      let lo = min ctl target and hi = max ctl target in
      if hi - lo > 1 then route mps ?max_bond ?cutoff instr
      else begin
        (* 4×4 on (lo, lo+1); local bit 0 = lo. *)
        let local_ctl = if ctl = lo then 0 else 1 in
        let local_tgt = 1 - local_ctl in
        let u =
          Qdt_arraysim.Unitary_builder.instruction_matrix ~num_qubits:2
            (Circuit.Apply { gate; controls = [ local_ctl ]; target = local_tgt })
        in
        apply_gate2 mps ?max_bond ?cutoff u lo
      end
  | Circuit.Swap { controls = []; a; b } ->
      let lo = min a b and hi = max a b in
      if hi - lo > 1 then route mps ?max_bond ?cutoff instr
      else apply_gate2 mps ?max_bond ?cutoff swap_matrix lo

(* Bring the two operands adjacent with swaps, apply, and swap back. *)
and route mps ?max_bond ?cutoff instr =
  let lo, hi, rebuild =
    match instr with
    | Circuit.Apply { gate; controls = [ ctl ]; target } ->
        let lo = min ctl target and hi = max ctl target in
        ( lo,
          hi,
          fun hi' ->
            let ctl' = if ctl < target then lo else hi' in
            let tgt' = if ctl < target then hi' else lo in
            Circuit.Apply { gate; controls = [ ctl' ]; target = tgt' } )
    | Circuit.Swap { controls = []; a; b } ->
        let lo = min a b and hi = max a b in
        (lo, hi, fun hi' -> Circuit.Swap { controls = []; a = lo; b = hi' })
    | _ -> assert false
  in
  (* swap hi down to lo+1 *)
  for k = hi - 1 downto lo + 1 do
    apply_gate2 mps ?max_bond ?cutoff swap_matrix k
  done;
  apply_instruction mps ?max_bond ?cutoff (rebuild (lo + 1));
  for k = lo + 1 to hi - 1 do
    apply_gate2 mps ?max_bond ?cutoff swap_matrix k
  done

let run ?max_bond ?cutoff circuit =
  if not (Circuit.is_unitary_only circuit) then
    invalid_arg "Mps.run: circuit measures or resets";
  let mps = create (Circuit.num_qubits circuit) in
  List.iter (apply_instruction mps ?max_bond ?cutoff) (Circuit.instructions circuit);
  mps

let amplitude mps k =
  (* Left-to-right product of the selected 1×D slices. *)
  let vec = ref [| Cx.one |] in
  for q = 0 to mps.n - 1 do
    let s = mps.sites.(q) in
    let bit = (k lsr q) land 1 in
    let next = Array.make s.dr Cx.zero in
    for r = 0 to s.dr - 1 do
      let acc = ref Cx.zero in
      for l = 0 to s.dl - 1 do
        acc := Cx.mul_add !acc !vec.(l) (site_get s l bit r)
      done;
      next.(r) <- !acc
    done;
    vec := next
  done;
  (!vec).(0)

let norm mps =
  (* Contract ⟨ψ|ψ⟩ along the chain: E[l,l'] environment. *)
  let env = ref (Mat.identity 1) in
  for q = 0 to mps.n - 1 do
    let s = mps.sites.(q) in
    let next = Mat.create s.dr s.dr in
    for r = 0 to s.dr - 1 do
      for r' = 0 to s.dr - 1 do
        let acc = ref Cx.zero in
        for l = 0 to s.dl - 1 do
          for l' = 0 to s.dl - 1 do
            let e = Mat.get !env l l' in
            if not (Cx.is_zero ~eps:0.0 e) then
              for p = 0 to 1 do
                acc :=
                  Cx.add !acc
                    (Cx.mul e
                       (Cx.mul (Cx.conj (site_get s l p r)) (site_get s l' p r')))
              done
          done
        done;
        Mat.set next r r' !acc
      done
    done;
    env := next
  done;
  Float.sqrt (Float.abs (Mat.get !env 0 0).Cx.re)

(* Every amplitude at once: a depth-first walk over qubits 0..n-1 keeps
   the prefix row vector of each level ([pre.(q)], after sites 0..q-1),
   so each prefix is built once and shared by all indices below it, in
   O(n·D) floats.  The sums are [amplitude]'s, term for term and in the
   same order, on unboxed floats, so the values are bit-identical. *)
let to_vec mps =
  let n = mps.n in
  let out = Array.make (2 lsl n) 0.0 in
  let pre =
    Array.init (n + 1) (fun q ->
        if q = 0 then [| 1.0; 0.0 |] else Array.make (2 * mps.sites.(q - 1).dr) 0.0)
  in
  let rec go q k =
    if q = n then begin
      out.(2 * k) <- pre.(n).(0);
      out.((2 * k) + 1) <- pre.(n).(1)
    end
    else begin
      let s = mps.sites.(q) and v = pre.(q) and next = pre.(q + 1) in
      for bit = 0 to 1 do
        for r = 0 to s.dr - 1 do
          let accr = ref 0.0 and acci = ref 0.0 in
          for l = 0 to s.dl - 1 do
            let o = 2 * ((((l * 2) + bit) * s.dr) + r) in
            let ar = v.(2 * l) and ai = v.((2 * l) + 1) in
            let br = s.data.(o) and bi = s.data.(o + 1) in
            accr := !accr +. ((ar *. br) -. (ai *. bi));
            acci := !acci +. ((ar *. bi) +. (ai *. br))
          done;
          next.(2 * r) <- !accr;
          next.((2 * r) + 1) <- !acci
        done;
        go (q + 1) (k lor (bit lsl q))
      done
    end
  in
  go 0 0;
  Vec.of_buffer out

(* Right environments R.(i) = contraction of ⟨ψ|ψ⟩ over sites i..n-1,
   a (dl_i × dl_i) positive matrix; R.(n) = [1]. *)
let right_environments mps =
  let n = mps.n in
  let envs = Array.make (n + 1) (Mat.identity 1) in
  for i = n - 1 downto 0 do
    let s = mps.sites.(i) in
    let r = envs.(i + 1) in
    let next = Mat.create s.dl s.dl in
    for l = 0 to s.dl - 1 do
      for l' = 0 to s.dl - 1 do
        let acc = ref Cx.zero in
        for p = 0 to 1 do
          for a = 0 to s.dr - 1 do
            for a' = 0 to s.dr - 1 do
              let e = Mat.get r a a' in
              if not (Cx.is_zero ~eps:0.0 e) then
                acc :=
                  Cx.add !acc
                    (Cx.mul (site_get s l p a)
                       (Cx.mul e (Cx.conj (site_get s l' p a'))))
            done
          done
        done;
        Mat.set next l l' !acc
      done
    done;
    envs.(i) <- next
  done;
  envs

let expectation_z mps q =
  if q < 0 || q >= mps.n then invalid_arg "Mps.expectation_z: qubit out of range";
  (* Contract ⟨ψ|Z_q|ψ⟩ with a sign flip on p=1 at site q, over the left
     environment, against the right environments. *)
  let envs = right_environments mps in
  let rec sweep i (left : Mat.t) =
    if i > q then
      (* finish with the right environment *)
      let r = envs.(i) in
      let acc = ref Cx.zero in
      for l = 0 to Mat.rows left - 1 do
        for l' = 0 to Mat.cols left - 1 do
          acc := Cx.add !acc (Cx.mul (Mat.get left l l') (Mat.get r l l'))
        done
      done;
      !acc
    else begin
      let s = mps.sites.(i) in
      let next = Mat.create s.dr s.dr in
      for a = 0 to s.dr - 1 do
        for a' = 0 to s.dr - 1 do
          let acc = ref Cx.zero in
          for p = 0 to 1 do
            let sign = if i = q && p = 1 then -1.0 else 1.0 in
            for l = 0 to s.dl - 1 do
              for l' = 0 to s.dl - 1 do
                let e = Mat.get left l l' in
                if not (Cx.is_zero ~eps:0.0 e) then
                  acc :=
                    Cx.add !acc
                      (Cx.scale sign
                         (Cx.mul (site_get s l p a)
                            (Cx.mul e (Cx.conj (site_get s l' p a')))))
              done
            done
          done;
          Mat.set next a a' !acc
        done
      done;
      sweep (i + 1) next
    end
  in
  let numerator = sweep 0 (Mat.identity 1) in
  let n2 = norm mps in
  numerator.Cx.re /. (n2 *. n2)

let sample ?(seed = 0) mps ~shots =
  let rng = Random.State.make [| seed |] in
  let envs = right_environments mps in
  let counts = Hashtbl.create 64 in
  for _shot = 1 to shots do
    (* conditioned left vector over the current bond *)
    let left = ref [| Cx.one |] in
    let outcome = ref 0 in
    for i = 0 to mps.n - 1 do
      let s = mps.sites.(i) in
      let branch p =
        let v = Array.make s.dr Cx.zero in
        for r = 0 to s.dr - 1 do
          let acc = ref Cx.zero in
          for l = 0 to s.dl - 1 do
            acc := Cx.mul_add !acc !left.(l) (site_get s l p r)
          done;
          v.(r) <- !acc
        done;
        (* weight = v† · R_{i+1} · v *)
        let w = ref 0.0 in
        let renv = envs.(i + 1) in
        for a = 0 to s.dr - 1 do
          for a' = 0 to s.dr - 1 do
            w := !w +. (Cx.mul (Cx.conj v.(a)) (Cx.mul (Mat.get renv a a') v.(a'))).Cx.re
          done
        done;
        (v, Float.max 0.0 !w)
      in
      let v0, w0 = branch 0 in
      let v1, w1 = branch 1 in
      let total = w0 +. w1 in
      let bit = if Random.State.float rng total < w1 then 1 else 0 in
      if bit = 1 then outcome := !outcome lor (1 lsl i);
      left := if bit = 1 then v1 else v0
    done;
    Hashtbl.replace counts !outcome
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts !outcome))
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
