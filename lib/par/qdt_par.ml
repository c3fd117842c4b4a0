(* Domain pool + fork-join primitives.  See the .mli for the contracts
   (sizing, determinism, nesting, memory model); the notes here are about
   the mechanics.

   The pool is generation-based: [run_job] publishes a job closure under
   the mutex, bumps the generation, and broadcasts; each worker runs the
   job once per generation and reports back through [pending].  The job
   closure must never raise — [parallel_for] wraps the user body and
   parks the first exception in an atomic instead.  Chunks are handed out
   by an atomic fetch-and-add, so the assignment of chunks to domains is
   scheduling-dependent but the chunk boundaries themselves are not. *)

let default_chunk = 1 lsl 14

(* ------------------------------------------------------------------ *)
(* Job-count resolution                                                *)
(* ------------------------------------------------------------------ *)

let max_jobs = 64
let clamp j = if j < 1 then 1 else if j > max_jobs then max_jobs else j

let env_jobs =
  lazy
    (match Sys.getenv_opt "QDT_JOBS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some j when j >= 1 -> Some (clamp j)
        | _ -> None)
    | None -> None)

let requested : int option ref = ref None

(* [recommended_domain_count] goes through sysconf — cache it, [jobs] is
   on the per-gate hot path. *)
let recommended = lazy (clamp (Domain.recommended_domain_count ()))

let jobs () =
  match !requested with
  | Some j -> j
  | None -> (
      match Lazy.force env_jobs with
      | Some j -> j
      | None -> Lazy.force recommended)

let set_jobs n = requested := Some (clamp n)

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type pool = {
  mutable workers : unit Domain.t array;
  mu : Mutex.t;
  work : Condition.t;  (* signalled when a new generation is published *)
  idle : Condition.t;  (* signalled when the last worker finishes one *)
  mutable gen : int;
  mutable job : (unit -> unit) option;
  mutable pending : int;
  mutable quit : bool;
}

let the_pool : pool option ref = ref None

let g_domains = Qdt_obs.Metrics.gauge "qdt.par.domains"

(* Which pool participant this domain is: 0 for the caller (and any
   domain outside the pool), [1 .. nworkers] for workers.  The slot is
   the "domain" label on per-domain metrics — a closed set bounded by
   [max_jobs], never a runtime domain id (those are unbounded). *)
let slot_key = Domain.DLS.new_key (fun () -> 0)
let domain_slot () = Domain.DLS.get slot_key

(* Chunks claimed per participant, as a labeled family (one series per
   slot).  Each series registers on the slot's first claimed chunk, so
   only slots that actually ran appear in snapshots — never all 65.
   A racing double-registration is benign: [counter_with] returns the
   same cell for the same key. *)
let chunk_counters = Array.make (max_jobs + 1) None

let chunk_counter slot =
  match chunk_counters.(slot) with
  | Some c -> c
  | None ->
      let c =
        Qdt_obs.Metrics.counter_with
          ~labels:[ ("domain", string_of_int slot) ]
          "qdt.par.chunks"
      in
      chunk_counters.(slot) <- Some c;
      c

let rec worker_loop pool last_gen =
  Mutex.lock pool.mu;
  while (not pool.quit) && pool.gen = last_gen do
    Condition.wait pool.work pool.mu
  done;
  if pool.quit then Mutex.unlock pool.mu
  else begin
    let gen = pool.gen in
    let job = match pool.job with Some j -> j | None -> ignore in
    Mutex.unlock pool.mu;
    job ();
    Mutex.lock pool.mu;
    pool.pending <- pool.pending - 1;
    if pool.pending = 0 then Condition.broadcast pool.idle;
    Mutex.unlock pool.mu;
    worker_loop pool gen
  end

let shutdown_pool pool =
  Mutex.lock pool.mu;
  pool.quit <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mu;
  Array.iter Domain.join pool.workers

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some pool ->
      the_pool := None;
      shutdown_pool pool;
      (* 0, not 1: after teardown no pool exists, and the reset-semantics
         contract (test_obs) is that the gauge reads 0 post-shutdown. *)
      Qdt_obs.Metrics.set g_domains 0.0

let () = at_exit shutdown

let spawned_domains () =
  match !the_pool with None -> 0 | Some p -> Array.length p.workers

(* [ensure_pool nworkers] — reuse a matching pool, else (re)spawn. *)
let ensure_pool nworkers =
  match !the_pool with
  | Some p when Array.length p.workers = nworkers -> p
  | existing ->
      (match existing with
      | Some p ->
          the_pool := None;
          shutdown_pool p
      | None -> ());
      let pool =
        {
          workers = [||];
          mu = Mutex.create ();
          work = Condition.create ();
          idle = Condition.create ();
          gen = 0;
          job = None;
          pending = 0;
          quit = false;
        }
      in
      pool.workers <-
        Array.init nworkers (fun i ->
            Domain.spawn (fun () ->
                Domain.DLS.set slot_key (i + 1);
                worker_loop pool 0));
      the_pool := Some pool;
      Qdt_obs.Metrics.set g_domains (float_of_int (nworkers + 1));
      pool

(* [run_job pool job] — run [job] on every worker and on the caller, then
   wait until all workers have finished it.  [job] must not raise. *)
let run_job pool job =
  Mutex.lock pool.mu;
  pool.job <- Some job;
  pool.pending <- Array.length pool.workers;
  pool.gen <- pool.gen + 1;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mu;
  job ();
  Mutex.lock pool.mu;
  while pool.pending > 0 do
    Condition.wait pool.idle pool.mu
  done;
  pool.job <- None;
  Mutex.unlock pool.mu

(* ------------------------------------------------------------------ *)
(* parallel_for / map                                                  *)
(* ------------------------------------------------------------------ *)

(* One region at a time, process-wide: a region entered while [active]
   runs on its caller (see "Nesting" in the .mli). *)
let active = Atomic.make false

(* Calls in progress inside [occupy]: each is a domain running a job of
   its own, so at two or more the cores are taken. *)
let occupants = Atomic.make 0

let occupy f =
  Atomic.incr occupants;
  Fun.protect ~finally:(fun () -> Atomic.decr occupants) f

(* The caller's walk: [body] once per chunk, on the boundaries the pool
   would use, so per-chunk partials come out the same. *)
let serial_chunks ~chunk lo hi body =
  let a = ref lo in
  while !a < hi do
    let b = if !a + chunk < hi then !a + chunk else hi in
    body !a b;
    a := b
  done

let parallel_for ?(chunk = default_chunk) lo hi body =
  let n = hi - lo in
  if n <= 0 then ()
  else begin
    let chunk = max 1 chunk in
    let j = jobs () in
    if j <= 1 || n <= chunk then body lo hi
    else if Atomic.get occupants >= 2 || not (Atomic.compare_and_set active false true)
    then serial_chunks ~chunk lo hi body
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set active false)
        (fun () ->
          let nchunks = (n + chunk - 1) / chunk in
          let pool = ensure_pool (j - 1) in
          let next = Atomic.make 0 in
          let err : exn option Atomic.t = Atomic.make None in
          let runner () =
            let m_chunks = chunk_counter (domain_slot ()) in
            let continue_ = ref true in
            while !continue_ do
              if Atomic.get err <> None then continue_ := false
              else begin
                let c = Atomic.fetch_and_add next 1 in
                if c >= nchunks then continue_ := false
                else begin
                  Qdt_obs.Metrics.incr m_chunks;
                  let a = lo + (c * chunk) in
                  let b = if a + chunk < hi then a + chunk else hi in
                  try body a b
                  with e -> ignore (Atomic.compare_and_set err None (Some e))
                end
              end
            done
          in
          Qdt_obs.Trace.emit_begin "par.chunk";
          run_job pool runner;
          Qdt_obs.Trace.emit_end "par.chunk";
          match Atomic.get err with Some e -> raise e | None -> ())
  end

let map ?(chunk = 1) f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ~chunk 0 n (fun a b ->
        for i = a to b - 1 do
          out.(i) <- Some (f arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end
