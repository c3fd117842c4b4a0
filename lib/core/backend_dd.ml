(* Backend adapter: QMDD simulation (Section III).  A session owns one
   DD manager, so the unique table, complex-number table and compute
   caches — the amortizable structures of DD simulation — persist across
   jobs; roots are released between jobs and the refcounted GC keeps the
   tables bounded.  Runs instruction by instruction so it can record the
   peak state-DD size, and reports per-job cache-counter deltas. *)

module Circuit = Qdt_circuit.Circuit
module Pkg = Qdt_dd.Pkg
module Sim = Qdt_dd.Sim

let ( let* ) r f = Result.bind r f
let p_live_nodes = Qdt_obs.Metrics.peak "dd.peak_live_nodes"
let rate hits lookups = if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups

module Session = struct
  let name = "decision-diagrams"

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

  type t = {
    mgr : Pkg.t;  (** shared across every job of the session *)
    mutable closed : bool;
    mutable mark : Pkg.cache_stats;  (** counter snapshot at the last job boundary *)
  }

  let create () =
    let mgr = Pkg.create () in
    { mgr; closed = false; mark = Pkg.cache_stats mgr }

  let close t = t.closed <- true

  (* One instruction, then the state-DD size into [peak]: the walk's
     step when the run tracks the largest intermediate DD. *)
  let tracked st peak instr ~rng ~clbits =
    Sim.apply_instruction st instr ~rng ~clbits;
    peak := max !peak (Sim.node_count st)

  let run_tracked mgr ~seed c =
    let st = Sim.make mgr (Circuit.num_qubits c) in
    let peak = ref 0 in
    ignore (Circuit.execute c ~rng:(Random.State.make [| seed |]) (tracked st peak));
    (st, !peak)

  (* Per-shot loop over the session manager: the previous shot's root is
     unpinned before the next shot starts, so dead nodes stay collectable;
     the last state is kept pinned for the telemetry record and released
     by [submit] once stats are read. *)
  (* Stays on the sequential [sample_per_shot]: every shot shares one DD
     manager (unique/compute tables, refcounts), which is not domain-safe —
     and sharing it is the point, since node reuse across shots is where the
     DD backend's compression comes from. *)
  let run_dynamic mgr ~seed ~shots c =
    let n = Circuit.num_qubits c in
    let peak = ref 0 in
    let last = ref None in
    let counts =
      Shot_engine.sample_per_shot ~seed ~shots ~run_shot:(fun ~rng ->
          Option.iter Sim.release !last;
          let st = Sim.make mgr n in
          last := Some st;
          let clbits = Circuit.execute c ~rng (tracked st peak) in
          Shot_engine.shot_key c clbits ~measure:(Sim.measure_qubit st ~rng))
    in
    let st = match !last with Some st -> st | None -> Sim.make mgr n in
    (st, !peak, counts)

  (* The job's values, from cache-counter deltas [cs] against the last
     job boundary. *)
  let values ~peak ~cs st =
    let mgr = Sim.manager st in
    let slots = List.fold_left (fun acc t -> acc + t.Pkg.slots) 0 cs.Pkg.caches in
    let fill = List.fold_left (fun acc t -> acc + t.Pkg.fill) 0 cs.Pkg.caches in
    let int name v = (name, float_of_int v) in
    [
      int "dd.peak_nodes" peak;
      int "dd.final_nodes" (Sim.node_count st);
      int "dd.unique_table_size" (Pkg.unique_table_size mgr);
      int "dd.cnum_table_size" (Pkg.cnum_live_entries mgr);
      ("dd.unique_hit_rate", rate cs.Pkg.unique_hits cs.Pkg.unique_lookups);
      ("dd.compute_hit_rate", rate cs.Pkg.compute_hits cs.Pkg.compute_lookups);
      ("dd.gate_hit_rate", rate cs.Pkg.gate.hits cs.Pkg.gate.lookups);
      int "dd.gc_runs" cs.Pkg.gc_runs;
      int "dd.nodes_collected" cs.Pkg.nodes_collected;
      int "dd.peak_live_nodes" cs.Pkg.peak_nodes;
      ("dd.compute_cache_fill", rate fill slots);
    ]

  let submit t c job =
    let* () = Backend.admit ~closed:t.closed ~name ~caps:capabilities c job in
    let (st, peak, payload), stats =
      Backend.timed ~name ~prefix:"dd" job (fun () ->
          match job with
          | Job.Full_state ->
              let st, peak = run_tracked t.mgr ~seed:0 c in
              (st, peak, Job.State (Sim.to_vec st))
          | Job.Amplitude k ->
              let st, peak = run_tracked t.mgr ~seed:0 c in
              (st, peak, Job.Amplitude_of (Sim.amplitude st k))
          | Job.Sample { seed; shots } -> (
              match Shot_engine.plan c with
              | Shot_engine.Static_unitary ->
                  let st, peak = run_tracked t.mgr ~seed c in
                  (st, peak, Job.Counts (Sim.sample ~seed:(seed + 1) st ~shots))
              | Shot_engine.Static_final { unitary; map } ->
                  let st, peak = run_tracked t.mgr ~seed unitary in
                  let counts = Sim.sample ~seed:(seed + 1) st ~shots in
                  (st, peak, Job.Counts (Shot_engine.remap_counts ~map counts))
              | Shot_engine.Dynamic ->
                  let st, peak, counts = run_dynamic t.mgr ~seed ~shots c in
                  (st, peak, Job.Counts counts))
          | Job.Expectation_z { seed; qubit } ->
              let st, peak = run_tracked t.mgr ~seed c in
              (st, peak, Job.Expectation (Sim.expectation_z st qubit)))
    in
    (* Per-job deltas against the last job boundary.  Reading a dense
       payload or an amplitude walks the diagram without touching a
       table, so it leaves these counters as the run left them.  The
       run's [dd.peak_live_nodes] peak is the value the job reports
       under that name. *)
    let cs = Pkg.diff_cache_stats ~before:t.mark ~after:(Pkg.cache_stats t.mgr) in
    Qdt_obs.Metrics.raise_to_int p_live_nodes cs.Pkg.peak_nodes;
    let values = values ~peak ~cs st in
    (* Release the job's pinned root — including the final per-shot
       state of a dynamic run — so the session's unique table is not
       permanently inflated by finished jobs. *)
    Sim.release st;
    t.mark <- Pkg.cache_stats t.mgr;
    Ok (payload, { stats with Backend.values })
end
