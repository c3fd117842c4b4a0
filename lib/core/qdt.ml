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
