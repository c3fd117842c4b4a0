(* Concurrent load generation.  Client threads are I/O-bound (the
   compute happens server-side on its worker domains), so systhreads on
   one domain are exactly right here. *)

module Clock = Qdt_obs.Clock
module Json = Qdt_obs.Json

type kind = [ `Sample | `Expectation | `Amplitude | `Full_state ]

type summary = {
  clients : int;
  jobs : int;
  ok : int;
  failed : int;
  retried_429 : int;
  wall_s : float;
  jobs_per_s : float;
  p50_ns : int;
  p99_ns : int;
  max_ns : int;
}

let pp_summary s =
  Printf.sprintf
    "%d clients x %d jobs: %d ok, %d failed, %d retried (429) in %.3f s — \
     %.1f jobs/s, p50 %.3f ms, p99 %.3f ms, max %.3f ms"
    s.clients
    (if s.clients = 0 then 0 else s.jobs / s.clients)
    s.ok s.failed s.retried_429 s.wall_s s.jobs_per_s
    (float_of_int s.p50_ns /. 1e6)
    (float_of_int s.p99_ns /. 1e6)
    (float_of_int s.max_ns /. 1e6)

let default_qasm n =
  let b = Buffer.create 256 in
  Buffer.add_string b "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string b (Printf.sprintf "qreg q[%d];\n" n);
  Buffer.add_string b "h q[0];\n";
  for i = 0 to n - 2 do
    Buffer.add_string b (Printf.sprintf "cx q[%d],q[%d];\n" i (i + 1))
  done;
  Buffer.contents b

let job_json kind ~seed =
  match kind with
  | `Sample -> Printf.sprintf "{\"kind\": \"sample\", \"seed\": %d, \"shots\": 64}" seed
  | `Expectation ->
      Printf.sprintf "{\"kind\": \"expectation_z\", \"seed\": %d, \"qubit\": 0}" seed
  | `Amplitude -> "{\"kind\": \"amplitude\", \"index\": 0}"
  | `Full_state -> "{\"kind\": \"full_state\"}"

let request_body ~qasm ~backend ~session ~kind ~seed =
  Printf.sprintf "{\"qasm\": %s, \"backend\": %s%s, \"job\": %s}"
    (Json.string qasm) (Json.string backend)
    (match session with
    | Some s -> Printf.sprintf ", \"session\": %s" (Json.string s)
    | None -> "")
    (job_json kind ~seed)

(* One client's own record; [t_latencies] holds each successful job's
   round trip in ns. *)
type tally = {
  mutable t_failed : int;
  mutable t_retried : int;
  mutable t_latencies : int list;
}

let client_thread ~host ~port ~backend ~use_sessions ~mix ~qasm ~seed
    ~jobs_per_client i (tally : tally) =
  let session = if use_sessions then Some ("lg" ^ string_of_int i) else None in
  let conn = ref None in
  let get_conn () =
    match !conn with
    | Some c -> Some c
    | None -> (
        match Client.connect ~host ~port with
        | c ->
            conn := Some c;
            Some c
        | exception Unix.Unix_error _ -> None)
  in
  let drop_conn () =
    Option.iter Client.close !conn;
    conn := None
  in
  let nmix = List.length mix in
  for j = 0 to jobs_per_client - 1 do
    let kind = List.nth mix ((i + j) mod nmix) in
    let body = request_body ~qasm ~backend ~session ~kind ~seed:(seed + j) in
    let rec attempt tries =
      if tries > 100 then tally.t_failed <- tally.t_failed + 1
      else
        match get_conn () with
        | None ->
            if tries < 3 then (Unix.sleepf 0.05; attempt (tries + 1))
            else tally.t_failed <- tally.t_failed + 1
        | Some c -> (
            let t0 = Clock.now_ns () in
            match Client.request c ~meth:"POST" ~path:"/v1/jobs" ~body () with
            | Ok (200, _, _) ->
                tally.t_latencies <- (Clock.now_ns () - t0) :: tally.t_latencies
            | Ok (429, headers, _) ->
                tally.t_retried <- tally.t_retried + 1;
                let wait =
                  match
                    Option.bind
                      (List.assoc_opt "retry-after" headers)
                      int_of_string_opt
                  with
                  | Some s when s > 0 -> min (float_of_int s) 1.0
                  | _ -> 0.05
                in
                Unix.sleepf wait;
                attempt (tries + 1)
            | Ok (_, _, _) -> tally.t_failed <- tally.t_failed + 1
            | Error _ ->
                drop_conn ();
                if tries < 3 then attempt (tries + 1)
                else tally.t_failed <- tally.t_failed + 1)
    in
    attempt 0
  done;
  drop_conn ()

let run ?(host = "127.0.0.1") ?(port = 8177) ?(backend = "decision-diagrams")
    ?(use_sessions = true) ?(mix = [ `Sample; `Expectation; `Amplitude ])
    ?qasm ?(seed = 0) ~clients ~jobs_per_client () =
  let qasm = match qasm with Some q -> q | None -> default_qasm 8 in
  let mix = if mix = [] then [ `Sample ] else mix in
  let tallies =
    Array.init clients (fun _ -> { t_failed = 0; t_retried = 0; t_latencies = [] })
  in
  let t0 = Clock.now_ns () in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            client_thread ~host ~port ~backend ~use_sessions ~mix ~qasm ~seed
              ~jobs_per_client i tallies.(i))
          ())
  in
  List.iter Thread.join threads;
  let wall_s = Clock.ns_to_s (Clock.now_ns () - t0) in
  let latencies =
    Array.of_list
      (List.concat_map (fun x -> List.map float_of_int x.t_latencies) (Array.to_list tallies))
  in
  let ok = Array.length latencies in
  let percentile p =
    if ok = 0 then 0 else int_of_float (Float.round (Qdt_obs.Stats.percentile ~p latencies))
  in
  let fold f = Array.fold_left (fun acc x -> acc + f x) 0 tallies in
  {
    clients;
    jobs = clients * jobs_per_client;
    ok;
    failed = fold (fun x -> x.t_failed);
    retried_429 = fold (fun x -> x.t_retried);
    wall_s;
    jobs_per_s = (if wall_s > 0.0 then float_of_int ok /. wall_s else 0.0);
    p50_ns = percentile 50.0;
    p99_ns = percentile 99.0;
    max_ns = percentile 100.0;
  }
