(* The static/dynamic shot-execution split (mqt-core's sampling strategy,
   SNIPPETS 1-2).  A circuit is classified once; backends branch on the
   plan inside their [sample] adapters:

   - [Static_unitary]: no measure/reset/conditional at all.  The backend
     keeps its historical simulate-once-then-sample path untouched, which
     keeps the RNG streams bit-identical to the pre-dynamic code.
   - [Static_final]: measurements only, and every measured qubit is dead
     afterwards.  The measurements commute to the end of the circuit, so
     the backend runs the unitary prefix once, samples the final state,
     and remaps each sampled basis state through the qubit→clbit wiring.
   - [Dynamic]: a conditional, a reset, or a measured qubit that is used
     again.  The only faithful execution is one full run per shot with a
     live classical register. *)

module Circuit = Qdt_circuit.Circuit

type plan =
  | Static_unitary
  | Static_final of { unitary : Circuit.t; map : (int * int) list }
  | Dynamic

let plan c =
  if Circuit.is_unitary_only c then Static_unitary
  else if Circuit.is_dynamic c then Dynamic
  else begin
    (* Terminal measurements only: strip them, record the wiring in
       program order (a later measure into the same clbit wins). *)
    let unitary =
      List.fold_left
        (fun acc instr -> Circuit.add instr acc)
        (Circuit.empty ~clbits:(Circuit.num_clbits c) (Circuit.num_qubits c))
        (Circuit.unitary_instructions c)
    in
    let map =
      List.filter_map
        (function
          | Circuit.Measure { qubit; clbit } -> Some (qubit, clbit)
          | _ -> None)
        (Circuit.instructions c)
    in
    Static_final { unitary; map }
  end

let remap_key ~map k =
  List.fold_left
    (fun key (qubit, clbit) ->
      let bit = (k lsr qubit) land 1 in
      (key land lnot (1 lsl clbit)) lor (bit lsl clbit))
    0 map

(* A dynamic shot's counts key: the classical register when the circuit
   measures, else a terminal measurement of every qubit, qubit 0 first. *)
let shot_key c clbits ~measure =
  if Circuit.has_measure c then Circuit.creg_value clbits
  else begin
    let key = ref 0 in
    for q = 0 to Circuit.num_qubits c - 1 do
      key := !key lor (measure q lsl q)
    done;
    !key
  end

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let remap_counts ~map counts =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, n) ->
      let key = remap_key ~map k in
      Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    counts;
  sorted_counts tbl

(* Shots executed, labeled by execution mode — so a report's metrics diff
   says whether the dynamic path ran serial or fanned out. *)
let m_shots_serial =
  Qdt_obs.Metrics.counter_with ~labels:[ ("mode", "serial") ] "qdt.shots.completed"

let m_shots_parallel =
  Qdt_obs.Metrics.counter_with
    ~labels:[ ("mode", "parallel") ]
    "qdt.shots.completed"

(* Shot blocks (chunks of the per-shot loop) per executing pool slot:
   the per-domain load-balance picture of a sampling run.  Series
   register on a slot's first block so only slots that actually ran
   appear in snapshots; a racing double-registration returns the same
   cell. *)
let block_counters = Array.make (Qdt_par.max_jobs + 1) None

let block_counter slot =
  match block_counters.(slot) with
  | Some c -> c
  | None ->
      let c =
        Qdt_obs.Metrics.counter_with
          ~labels:[ ("domain", string_of_int slot) ]
          "qdt.shots.blocks"
      in
      block_counters.(slot) <- Some c;
      c

let sample_per_shot ~seed ~shots ~run_shot =
  let rng = Random.State.make [| seed |] in
  let tbl = Hashtbl.create 64 in
  for _shot = 1 to shots do
    let key = run_shot ~rng in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  done;
  Qdt_obs.Metrics.add m_shots_serial shots;
  sorted_counts tbl

(* Parallel dynamic path.  At jobs = 1 this is exactly [sample_per_shot]
   (one sequential stream — bit-identical to the pre-parallel engine).
   At jobs >= 2 every shot draws from its own stream seeded by
   [(seed, shot index)], so each shot's outcome depends only on the seed
   and its index, never on which domain ran it or in what order: the
   counts are identical at any job count >= 2.  [run_shot] must be
   reentrant — it is called concurrently with distinct [rng] states and
   must build any per-shot state (statevector, tableau, scratch) fresh. *)
let sample_per_shot_parallel ~seed ~shots ~run_shot =
  if Qdt_par.jobs () <= 1 then sample_per_shot ~seed ~shots ~run_shot
  else begin
    let keys = Array.make (max shots 0) 0 in
    Qdt_par.parallel_for ~chunk:16 0 shots (fun lo hi ->
        Qdt_obs.Metrics.incr (block_counter (Qdt_par.domain_slot ()));
        for shot = lo to hi - 1 do
          let rng = Random.State.make [| seed; shot |] in
          keys.(shot) <- run_shot ~rng
        done);
    Qdt_obs.Metrics.add m_shots_parallel shots;
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun key ->
        Hashtbl.replace tbl key
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
      keys;
    sorted_counts tbl
  end
