(* The three served workloads.  Everything here — circuits, request
   bodies, arrival times — is a pure function of the workload name, the
   seed and the connection index, so two runs with one seed send the
   same bytes on the same schedule. *)

module Q = Qdt_api

type kind =
  | Full_state
  | Amplitude of int
  | Sample of { seed : int; shots : int }
  | Expz of { seed : int; qubit : int }

type circ = { cname : string; qasm : string; qubits : int; dynamic : bool }

type req = { circ : int; kind : kind; body : string }

type t = {
  name : string;
  backend : string;
  warm : bool;  (** one named session per connection *)
  rate : float;  (** open-loop arrivals per second, over all connections *)
  circuits : circ array;
  pools : int array array;  (** per connection: the circuits its session runs *)
  streams : req array array;  (** per connection: one cycle of its requests *)
}

let names = [ "dd-warm"; "sv-dense"; "auto-cold" ]

(* Open-loop rates: 15-30% of the closed-loop throughput each workload
   reached on a noisy 2-core host (dd-warm 400-900/s, sv-dense 25-45/s,
   auto-cold ~700/s).  Kept low so queueing, which amplifies every
   slowdown of a shared host, adds little to p50. *)
let rate_of = function
  | "dd-warm" -> 120.0
  | "sv-dense" -> 6.0
  | _ -> 200.0

let rng seed parts = Random.State.make (Array.of_list (seed :: parts))

let circ_of name c =
  (* The reference is built from the QASM text the server receives, not
     from the generator's in-memory circuit. *)
  let qasm = Q.to_qasm c in
  let parsed = Q.of_qasm qasm in
  { cname = name; qasm; qubits = Q.num_qubits parsed; dynamic = Q.is_dynamic parsed }

(* A 12-qubit nearest-neighbour brickwork of Ry layers and CX bricks: not
   Clifford, every two-qubit gate adjacent, so auto's rule 2 sends it to
   MPS. *)
let brickwork st =
  let n = 12 and layers = 2 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\n";
  for l = 0 to layers - 1 do
    for q = 0 to n - 1 do
      Printf.bprintf b "ry(%.17g) q[%d];\n" (Random.State.float st Float.pi) q
    done;
    let q = ref (l mod 2) in
    while !q + 1 < n do
      Printf.bprintf b "cx q[%d],q[%d];\n" !q (!q + 1);
      q := !q + 2
    done
  done;
  let qasm = Buffer.contents b in
  { cname = "brickwork-12"; qasm; qubits = n; dynamic = false }

let kind_json = function
  | Full_state -> {|{"kind": "full_state"}|}
  | Amplitude k -> Printf.sprintf {|{"kind": "amplitude", "index": %d}|} k
  | Sample { seed; shots } ->
      Printf.sprintf {|{"kind": "sample", "seed": %d, "shots": %d}|} seed shots
  | Expz { seed; qubit } ->
      Printf.sprintf {|{"kind": "expectation_z", "seed": %d, "qubit": %d}|} seed qubit

let body ~backend ~session (c : circ) kind =
  Printf.sprintf {|{"qasm": %s, "backend": %s, "job": %s%s}|} (Jsonv.escape c.qasm)
    (Jsonv.escape backend) (kind_json kind)
    (match session with
    | Some s -> Printf.sprintf {|, "session": %s|} (Jsonv.escape s)
    | None -> "")

let session_name w conn = if w.warm then Some (Printf.sprintf "%s-c%d" w.name conn) else None

(* Fisher–Yates with the given state. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One cycle of a connection's requests: [rounds] seeded shuffles of the
   fixed (circuit, kind-template) combinations, so every seed sends the
   same job mix in a different order with different job parameters. *)
let stream ~seed ~conn ~rounds ~backend ~session circuits combos make_kind =
  let st = rng seed [ conn; 7 ] in
  Array.concat
    (List.init rounds (fun _ ->
         Array.map
           (fun (ci, tmpl) ->
             let kind = make_kind st circuits.(ci) tmpl in
             { circ = ci; kind; body = body ~backend ~session circuits.(ci) kind })
           (shuffle st combos)))

type template = T_full | T_amp | T_sample of int | T_expz

let make_kind st (c : circ) = function
  | T_full -> Full_state
  | T_amp -> Amplitude (Random.State.int st (1 lsl c.qubits))
  | T_sample shots -> Sample { seed = Random.State.int st 1_000_000; shots }
  | T_expz -> Expz { seed = Random.State.int st 1_000_000; qubit = Random.State.int st c.qubits }

(* What a workload generator returns: its circuits, each connection's
   pool, each connection's (circuit, template) combinations and how
   many shuffled rounds of them make one cycle of its stream. *)
type spec = {
  s_circuits : circ array;
  s_pools : int array array;
  s_combos : int -> (int * template) array;
  s_rounds : int;
}

(* The DD pool does not vary with the seed: the cost of a random
   Clifford+T circuit on a warm DD engine differs several-fold between
   draws, so a pool drawn per seed would measure the draw, not the
   engine.  Job order, job parameters and arrivals still follow the
   seed. *)
let dd_warm ~conns =
  let per_pool = 4 in
  let circuits =
    Array.init (conns * per_pool) (fun i ->
        circ_of
          (Printf.sprintf "clifford-t-7-%d" i)
          (Q.random_clifford_t ~seed:(13 + i) ~gates:110 ~t_fraction:0.25 7))
  in
  let pools = Array.init conns (fun c -> Array.init per_pool (fun k -> (c * per_pool) + k)) in
  let combos c =
    Array.concat
      (List.map (fun ci -> [| (ci, T_amp); (ci, T_sample 64); (ci, T_expz) |]) (Array.to_list pools.(c)))
  in
  { s_circuits = circuits; s_pools = pools; s_combos = combos; s_rounds = 20 }

(* Fixed circuits for the same reason as dd_warm: the gate count of a
   random circuit, and so its statevector cost, varies between draws. *)
let sv_dense ~conns =
  let circuits =
    [|
      circ_of "qft-16" (Q.qft 16);
      circ_of "qv-15" (Q.quantum_volume ~seed:15 ~depth:4 15);
      circ_of "random-16" (Q.random_circuit ~seed:16 ~depth:5 16);
      circ_of "qv-16" (Q.quantum_volume ~seed:17 ~depth:3 16);
    |]
  in
  let all = Array.init (Array.length circuits) Fun.id in
  let combos =
    Array.concat (List.map (fun ci -> [| (ci, T_sample 256); (ci, T_expz) |]) (Array.to_list all))
  in
  { s_circuits = circuits; s_pools = Array.make conns all; s_combos = (fun _ -> combos); s_rounds = 8 }

(* Fixed circuits too: a seeded draw of the Clifford+T circuit can land on
   either side of auto's T-heavy threshold and change the routing mix. *)
let auto_cold ~conns =
  let st = rng 0 [ 11 ] in
  let static_all = [ T_amp; T_sample 64; T_expz ] in
  let battery =
    [
      (circ_of "ghz-12" (Q.ghz 12), T_full :: static_all);
      (circ_of "w-12" (Q.w_state 12), T_full :: static_all);
      (circ_of "qft-10" (Q.qft 10), T_full :: static_all);
      (circ_of "grover-6" (Q.grover ~marked:(Random.State.int st 64) 6), static_all);
      (circ_of "qaoa-10" (Q.qaoa ~seed:(Random.State.bits st) 10), static_all);
      (circ_of "hidden-shift-12" (Q.hidden_shift ~shift:(Random.State.int st 4096) 12), static_all);
      (circ_of "clifford-12" (Q.random_clifford ~seed:(Random.State.bits st) ~gates:120 12), static_all);
      ( circ_of "clifford-t-6"
          (Q.random_clifford_t ~seed:(Random.State.bits st) ~gates:40 ~t_fraction:0.25 6),
        static_all );
      (circ_of "teleportation" (Q.teleportation ()), [ T_sample 64; T_expz ]);
      (brickwork st, static_all);
    ]
  in
  let combos =
    Array.of_list (List.concat (List.mapi (fun i (_, ks) -> List.map (fun k -> (i, k)) ks) battery))
  in
  {
    s_circuits = Array.of_list (List.map fst battery);
    s_pools = Array.make conns [||];
    s_combos = (fun _ -> combos);
    s_rounds = 16;
  }

let make ~name ~seed ~conns =
  let spec, backend, warm =
    match name with
    | "dd-warm" -> (dd_warm ~conns, "decision-diagrams", true)
    | "sv-dense" -> (sv_dense ~conns, "arrays", true)
    | "auto-cold" -> (auto_cold ~conns, "auto", false)
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  let w =
    { name; backend; warm; rate = rate_of name; circuits = spec.s_circuits; pools = spec.s_pools;
      streams = [||] }
  in
  let streams =
    Array.init conns (fun c ->
        stream ~seed ~conn:c ~rounds:spec.s_rounds ~backend ~session:(session_name w c)
          w.circuits (spec.s_combos c) make_kind)
  in
  { w with streams }

let request w ~conn k =
  let s = w.streams.(conn) in
  s.(k mod Array.length s)

(* Warm-up requests run at set-up: each circuit of the connection's pool
   once, on the connection's session. *)
let warmup w ~conn =
  Array.map
    (fun ci ->
      let kind = Amplitude 0 in
      { circ = ci; kind; body = body ~backend:w.backend ~session:(session_name w conn) w.circuits.(ci) kind })
    w.pools.(conn)

(* Poisson arrivals for one connection: exponential gaps at rate/conns,
   so the connections together arrive at [rate].  Times in seconds from
   the start of the open-loop phase, up to [duration]. *)
let arrivals w ~seed ~conn ~conns ~duration =
  let st = rng seed [ conn; 13 ] in
  let per = w.rate /. float_of_int conns in
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. per) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []
