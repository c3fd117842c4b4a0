module Linalg = Qdt_linalg
module Circuit = Qdt_circuit
module Arrays = Qdt_arraysim
module Dd = Qdt_dd
module Tensornet = Qdt_tensornet
module Zx = Qdt_zx
module Compile = Qdt_compile
module Verify = Qdt_verify
module Stabilizer = Qdt_stabilizer
module Obs = Qdt_obs
module Par = Qdt_par

(* The backend layer: engine interface + capabilities + stats, the
   registry of engines, and the portfolio dispatcher. *)
module Backend = Backend
module Job = Job
module Registry = Registry
module Auto = Backend_auto
module Shot_engine = Shot_engine
module Features = Features

type backend =
  | Arrays_backend
  | Decision_diagrams
  | Tensor_network
  | Mps
  | Stabilizer_backend
  | Auto_backend

let backend_name = function
  | Arrays_backend -> "arrays"
  | Decision_diagrams -> "decision-diagrams"
  | Tensor_network -> "tensor-network"
  | Mps -> "mps"
  | Stabilizer_backend -> "stabilizer"
  | Auto_backend -> "auto"


(* Every variant is registered at startup by {!Registry}. *)
let backend_module b : Backend.engine =
  match Registry.find_session (backend_name b) with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Qdt: backend %s not registered" (backend_name b))

(* Compatibility shim: the historical API raised [Invalid_argument] on
   unsupported combinations; the registry returns typed errors. *)
let run op ~backend c job =
  match Backend.run_once (backend_module backend) c job with
  | Ok (result, _stats) -> result
  | Error e -> invalid_arg (Printf.sprintf "Qdt.%s: %s" op (Backend.error_to_string e))

let mismatch op = invalid_arg (Printf.sprintf "Qdt.%s: mismatched job payload" op)

let simulate ~backend c =
  match run "simulate" ~backend c Job.Full_state with
  | Job.State v -> v
  | _ -> mismatch "simulate"

let amplitude ~backend c k =
  match run "amplitude" ~backend c (Job.Amplitude k) with
  | Job.Amplitude_of a -> a
  | _ -> mismatch "amplitude"

let sample ~backend ?(seed = 0) ~shots c =
  match run "sample" ~backend c (Job.Sample { seed; shots }) with
  | Job.Counts counts -> counts
  | _ -> mismatch "sample"

let expectation_z ~backend ?(seed = 0) c q =
  match run "expectation_z" ~backend c (Job.Expectation_z { seed; qubit = q }) with
  | Job.Expectation v -> v
  | _ -> mismatch "expectation_z"

type compiled = {
  circuit : Qdt_circuit.Circuit.t;
  added_swaps : int;
  removed_gates : int;
  initial_layout : int array;
  final_layout : int array;
}

let compile ?(optimize = true) ~coupling c =
  let result = Qdt_compile.Router.route c coupling in
  let routed = result.Qdt_compile.Router.routed in
  let final_circuit, removed =
    if optimize then
      let optimized, stats = Qdt_compile.Optimize.optimize routed in
      (optimized, stats.Qdt_compile.Optimize.removed)
    else (routed, 0)
  in
  {
    circuit = final_circuit;
    added_swaps = result.Qdt_compile.Router.added_swaps;
    removed_gates = removed;
    initial_layout = result.Qdt_compile.Router.initial_layout;
    final_layout = result.Qdt_compile.Router.final_layout;
  }

type checker =
  | Check_arrays
  | Check_dd
  | Check_dd_alternating
  | Check_zx
  | Check_tn
  | Check_simulation

let checker_name = function
  | Check_arrays -> "arrays"
  | Check_dd -> "dd"
  | Check_dd_alternating -> "dd-alternating"
  | Check_zx -> "zx"
  | Check_tn -> "tn"
  | Check_simulation -> "simulation"

let all_checkers =
  [ Check_arrays; Check_dd; Check_dd_alternating; Check_zx; Check_tn; Check_simulation ]

let equivalent ~checker c1 c2 =
  match checker with
  | Check_arrays -> Qdt_verify.Equiv.arrays c1 c2
  | Check_dd -> Qdt_verify.Equiv.dd c1 c2
  | Check_dd_alternating -> Qdt_verify.Equiv.dd_alternating c1 c2
  | Check_zx -> Qdt_verify.Equiv.zx c1 c2
  | Check_tn -> Qdt_verify.Equiv.tn c1 c2
  | Check_simulation -> Qdt_verify.Equiv.simulation c1 c2
