(* Every call the benchmark makes into the qdt libraries lives in this
   module, so a refactor of the library touches one file here at most.
   Engines are reached only through the registry's SESSION face; the
   per-job stats record is never taken apart here, only handed back to
   the protocol encoder, because its shape is expected to change. *)

module Circuit = Qdt_circuit.Circuit
module Gen = Qdt_circuit.Generators

type circuit = Circuit.t

(* ---- Circuits -------------------------------------------------------- *)

let to_qasm = Qdt_circuit.Qasm.to_string
let of_qasm = Qdt_circuit.Qasm.of_string
let num_qubits = Circuit.num_qubits
let num_instructions c = List.length (Circuit.instructions c)
let is_dynamic = Circuit.is_dynamic
let ghz = Gen.ghz
let w_state = Gen.w_state
let qft n = Gen.qft n
let grover ~marked n = Gen.grover ~marked n
let qaoa ~seed n = Gen.qaoa_maxcut ~seed ~layers:2 n
let hidden_shift ~shift n = Gen.hidden_shift ~shift n
let random_clifford ~seed ~gates n = Gen.random_clifford ~seed ~gates n
let random_clifford_t ~seed ~gates ~t_fraction n =
  Gen.random_clifford_t ~seed ~gates ~t_fraction n
let random_circuit ~seed ~depth n = Gen.random_circuit ~seed ~depth n
let quantum_volume ~seed ~depth n = Gen.quantum_volume ~seed ~depth n
let teleportation () = Gen.teleportation ()

(* ---- Jobs and payloads ----------------------------------------------- *)

let full_state = Qdt.Job.Full_state
let amplitude k = Qdt.Job.Amplitude k
let sample ~seed ~shots = Qdt.Job.Sample { seed; shots }
let expectation_z ~seed ~qubit = Qdt.Job.Expectation_z { seed; qubit }

type payload =
  | State of (float * float) array
  | Amp of float * float
  | Counts of (int * int) list
  | Expectation of float

let payload_of = function
  | Qdt.Job.State v ->
      State
        (Array.map
           (fun (a : Qdt.Linalg.Cx.t) -> (a.re, a.im))
           (Qdt.Linalg.Vec.to_array v))
  | Qdt.Job.Amplitude_of a -> Amp (a.re, a.im)
  | Qdt.Job.Counts c -> Counts c
  | Qdt.Job.Expectation e -> Expectation e

(* ---- Engines (SESSION face only) ------------------------------------- *)

(* An open engine of some backend, with the module that knows its state. *)
type session = Session : (module Qdt.Backend.SESSION with type t = 's) * 's -> session

type run = {
  result : Qdt.Job.result;
  stats : Qdt.Backend.stats;
  minor_words : float;  (** allocated by the submit itself *)
  submit_s : float;
}

let engine name = Qdt.Registry.find_session name

let open_session name =
  match engine name with
  | None -> None
  | Some (module S : Qdt.Backend.SESSION) -> Some (Session ((module S), S.create ()))

let close_session (Session ((module S), s)) = S.close s

let submit (Session ((module S), s)) c job =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = S.submit s c job in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  match r with
  | Ok (result, stats) ->
      Ok { result; stats; minor_words = w1 -. w0; submit_s = t1 -. t0 }
  | Error e -> Error (Qdt.Backend.error_to_string e)

(* [create_close_s name] — mean seconds to create and close one fresh
   engine, over batches of them run for at least 5 ms, so an engine
   whose create is a few nanoseconds still reads above the clock's
   resolution. *)
let create_close_s name =
  match engine name with
  | None -> None
  | Some (module S : Qdt.Backend.SESSION) ->
      let t0 = Unix.gettimeofday () in
      let rec go n =
        for _ = 1 to 64 do
          S.close (S.create ())
        done;
        let n = n + 64 and dt = Unix.gettimeofday () -. t0 in
        if dt < 0.005 then go n else dt /. float_of_int n
      in
      Some (go 0)

(* [run_once name c job] — one job on a fresh engine, for oracles. *)
let run_once name c job =
  match open_session name with
  | None -> Error ("no engine named " ^ name)
  | Some s ->
      let r = submit s c job in
      close_session s;
      Result.map (fun r -> payload_of r.result) r

(* ---- Per-layer public functions, for the in-process replay ----------- *)

type request = Qdt_serve.Protocol.job_request

let decode body = Qdt_serve.Protocol.job_request_of_string body
let parse (req : request) = Qdt_serve.Protocol.circuit_of req
let request_job (req : request) = req.Qdt_serve.Protocol.job
let analyze c = ignore (Sys.opaque_identity (Qdt.Features.analyze c))

let encode (req : request) (r : run) ~queue_wait_ns ~run_ns =
  Qdt_serve.Protocol.ok_body ~job:req.Qdt_serve.Protocol.job ~payload:r.result
    ~stats:r.stats ~queue_wait_ns ~run_ns

let http_read ic =
  match Qdt_serve.Http.read_request ~max_body_bytes:(64 * 1024 * 1024) ic with
  | Ok (Some _) -> true
  | Ok None | Error _ -> false

let http_write oc body =
  Qdt_serve.Http.write_response oc (Qdt_serve.Http.response ~status:200 body)
