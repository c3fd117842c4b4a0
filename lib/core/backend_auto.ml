(* The portfolio backend: inspects the circuit and routes each operation to
   the backend the selection heuristics of Burgholzer/Ploier/Wille,
   "Tensor Networks or Decision Diagrams? Guidelines for Classical Quantum
   Circuit Simulation" (2023) favour:

     1. pure Clifford                  -> stabilizer tableau (O(n^2))
     2. nearest-neighbour interactions -> MPS (bond dimension stays small)
     3. T-heavy                        -> decision diagrams
     4. small generic                  -> dense arrays
     5. anything else                  -> decision diagrams

   Each rule only fires when the target engine admits the job on the
   given circuit (the shared guard, {!Backend.admit}), so e.g. a
   full-state request on a Clifford circuit falls through to a
   state-producing backend.  The chosen backend and the reason are
   logged in the [note] field of the returned stats record.

   An auto session routes per job and opens the chosen backend's session
   lazily the first time a job lands on it, then keeps it for the rest of
   the session — so a job mix that settles on decision diagrams still
   warm-starts the DD unique table and compute caches. *)

module Circuit = Qdt_circuit.Circuit

let ( let* ) r f = Result.bind r f
let name = "auto"

let capabilities =
  {
    Backend.full_state = true;
    amplitude = true;
    sample = true;
    expectation_z = true;
    supports_nonunitary = true;
    clifford_only = false;
    max_qubits = None;
    dynamic = true;
  }

(* The feature pass lives in [Features] (shared with run reports); the
   router consumes it unchanged. *)
let features = Features.analyze
let t_heavy = Features.t_heavy

let admits (module S : Backend.SESSION) c job =
  Result.is_ok (Backend.admit ~closed:false ~name:S.name ~caps:S.capabilities c job)

let stabilizer : Backend.engine = (module Backend_stabilizer.Session)
let mps : Backend.engine = (module Backend_mps.Session)
let dd : Backend.engine = (module Backend_dd.Session)
let arrays : Backend.engine = (module Backend_arrays.Session)

(* [choose c job] — the engine the rules pick for [job] on [c], and why. *)
let choose c job =
  let f = features c in
  let rules =
    [
      ( f.Features.clifford,
        stabilizer,
        Printf.sprintf
          "pure Clifford circuit on %d qubits: stabilizer tableau is O(n^2)"
          f.qubits );
      ( f.qubits >= 12 && f.two_qubit > 0 && f.nn_fraction >= 0.95,
        mps,
        Printf.sprintf
          "%.0f%% of two-qubit gates are nearest-neighbour: low entanglement \
           growth, MPS bond dimension stays small"
          (100.0 *. f.nn_fraction) );
      ( t_heavy f,
        dd,
        Printf.sprintf
          "T-heavy circuit (t-count %d of %d gates): decision diagrams \
           exploit Clifford+T structure"
          f.t_count f.gates );
      ( f.qubits <= 20,
        arrays,
        Printf.sprintf
          "generic circuit on %d <= 20 qubits: dense state vector is \
           simplest and fastest"
          f.qubits );
    ]
  in
  let fallback =
    ( dd,
      Printf.sprintf
        "generic circuit on %d qubits: decision diagrams exploit redundancy \
         without the 2^n array"
        f.qubits )
  in
  let rec pick = function
    | [] -> fallback
    | (cond, e, reason) :: rest -> if cond && admits e c job then (e, reason) else pick rest
  in
  pick rules

let annotate reason = function
  | Ok (v, stats) -> Ok (v, { stats with Backend.note = Some reason })
  | Error e -> Error e

module Session = struct
  let name = name
  let capabilities = capabilities

  (* A sub-session packed with the module that knows its state type. *)
  type opened = Opened : (module Backend.SESSION with type t = 's) * 's -> opened

  type t = {
    mutable closed : bool;
    subs : (string, opened) Hashtbl.t;  (** one engine per routed backend *)
  }

  let create () = { closed = false; subs = Hashtbl.create 7 }

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Hashtbl.iter (fun _ (Opened ((module S), s)) -> S.close s) t.subs
    end

  let sub_session t (module S : Backend.SESSION) =
    match Hashtbl.find_opt t.subs S.name with
    | Some o -> o
    | None ->
        let o = Opened ((module S), S.create ()) in
        Hashtbl.add t.subs S.name o;
        o

  let submit t c job =
    let* () = Backend.admit ~closed:t.closed ~name ~caps:capabilities c job in
    let engine, reason = choose c job in
    let (Opened ((module S), s)) = sub_session t engine in
    annotate reason (S.submit s c job)
end
