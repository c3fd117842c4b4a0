(* Per-layer numbers for one traced run, all taken from outside the
   server: its access log, the timing and stats fields of each response,
   /metrics scraped before and after, and an in-process replay of the
   exact request bodies through each layer's public function. *)

module Q = Qdt_api
module W = Workload

let us s = s *. 1e6

(* ---- Reading what the server wrote ------------------------------------ *)

type logged = { latency_ns : float; queue_ns : float; run_ns : float }

(* Access-log entries of /v1/jobs, grouped by client peer, in order. *)
let read_access_log path =
  let by_peer = Hashtbl.create 8 in
  (match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
      (try
         while true do
           match Jsonv.parse (input_line ic) with
           | Ok v when Jsonv.str (Jsonv.member "path" v) = Some "/v1/jobs" -> (
               let f k = Jsonv.num (Jsonv.member k v) in
               match (Jsonv.str (Jsonv.member "client" v), f "latency_ns") with
               | Some peer, Some latency_ns ->
                   let e =
                     {
                       latency_ns;
                       queue_ns = Option.value (f "queue_wait_ns") ~default:Float.nan;
                       run_ns = Option.value (f "run_ns") ~default:Float.nan;
                     }
                   in
                   let l = Option.value (Hashtbl.find_opt by_peer peer) ~default:[] in
                   Hashtbl.replace by_peer peer (e :: l)
               | _ -> ())
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic);
  let out = Hashtbl.create 8 in
  Hashtbl.iter (fun peer l -> Hashtbl.replace out peer (Array.of_list (List.rev l))) by_peer;
  out

(* Sum of every series of one Prometheus metric family, by name. *)
let prom_value text name =
  let total = ref None in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i ->
            let key = String.sub line 0 i in
            let base = match String.index_opt key '{' with Some j -> String.sub key 0 j | None -> key in
            if base = name then
              Option.iter
                (fun v -> total := Some (Option.value !total ~default:0.0 +. v))
                (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> ())
    (String.split_on_char '\n' text);
  !total

(* ---- One job, seen from every side -------------------------------------- *)

type job = {
  s : Load.sample;
  resp : Jsonv.t;
  backend : string option;  (** from the response *)
  logged : logged option;
}

let jobs_of (samples : Load.sample list) log =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (s : Load.sample) ->
      let k = Option.value (Hashtbl.find_opt seen s.peer) ~default:0 in
      Hashtbl.replace seen s.peer (k + 1);
      let logged =
        match Hashtbl.find_opt log s.peer with
        | Some a when k < Array.length a -> Some a.(k)
        | _ -> None
      in
      match s.resp with
      | Ok r when r.Serve.status = 200 -> (
          match Jsonv.parse r.body with
          | Ok v -> Some { s; resp = v; backend = Jsonv.str (Jsonv.member "backend" v); logged }
          | Error _ -> None)
      | _ -> None)
    (List.sort (fun (a : Load.sample) b -> compare (a.conn, a.send) (b.conn, b.send)) samples)

let field j k = Jsonv.num (Jsonv.member k j.resp)

(* ---- In-process replay --------------------------------------------------- *)

type replay = {
  read_s : float;
  write_s : float;
  decode_s : float;
  parse_s : float;
  analyze_s : float;
  encode_s : float;
  instrs : int;
  minor_words : float;
  submit_s : float;
  replayed_backend : string option;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Replays [jobs] in order through read, decode, parse, analyze, engine
   (warm sessions per connection when the workload is warm, a fresh
   engine per job otherwise), encode and write.  Stops starting engine
   runs after [budget] seconds. *)
let replay (w : W.t) ~dir ~budget jobs =
  let req_path = Filename.concat dir "replay-requests.bin" in
  let resp_path = Filename.concat dir "replay-responses.bin" in
  let oc = open_out_bin req_path in
  List.iter
    (fun j -> output_string oc (Serve.request_bytes ~meth:"POST" ~path:"/v1/jobs" j.s.Load.req.W.body))
    jobs;
  close_out oc;
  let ic = open_in_bin req_path in
  let wc = open_out_bin resp_path in
  let warm = Hashtbl.create 4 in
  let session_for j =
    let b = Option.value j.backend ~default:w.W.backend in
    if w.W.warm then (
      match Hashtbl.find_opt warm (j.s.Load.conn, b) with
      | Some s -> Some (s, false)
      | None ->
          Option.map
            (fun s ->
              (* Warm it like the server's session: its pool once. *)
              Array.iter
                (fun (r : W.req) ->
                  match Q.decode r.W.body with
                  | Ok d -> (match Q.parse d with Ok c -> ignore (Q.submit s c (Q.request_job d)) | Error _ -> ())
                  | Error _ -> ())
                (W.warmup w ~conn:j.s.Load.conn);
              Hashtbl.replace warm (j.s.Load.conn, b) s;
              (s, false))
            (Q.open_session b))
    else Option.map (fun s -> (s, true)) (Q.open_session b)
  in
  let t_start = Unix.gettimeofday () in
  let out =
    List.filter_map
      (fun j ->
        let ok, read_s = time (fun () -> Q.http_read ic) in
        match Q.decode j.s.Load.req.W.body with
        | Error _ -> None
        | Ok _ when not ok -> None
        | Ok _ -> (
            let d, decode_s = time (fun () -> Q.decode j.s.Load.req.W.body) in
            let d = Result.get_ok d in
            match time (fun () -> Q.parse d) with
            | Error _, _ -> None
            | Ok c, parse_s ->
                let (), analyze_s = time (fun () -> Q.analyze c) in
                let resp_body =
                  match j.s.Load.resp with Ok r -> r.Serve.body | Error _ -> ""
                in
                seek_out wc 0;
                let (), write_s = time (fun () -> Q.http_write wc resp_body) in
                let engine =
                  if Unix.gettimeofday () -. t_start > budget then None
                  else
                    match session_for j with
                    | None -> None
                    | Some (s, cold) ->
                        let r = Q.submit s c (Q.request_job d) in
                        if cold then Q.close_session s;
                        Result.to_option r
                in
                let encode_s, minor_words, submit_s =
                  match engine with
                  | Some r ->
                      let qw = Option.value (field j "queue_wait_ns") ~default:0.0 in
                      let rn = Option.value (field j "run_ns") ~default:0.0 in
                      let _, e =
                        time (fun () ->
                            Q.encode d r ~queue_wait_ns:(int_of_float qw) ~run_ns:(int_of_float rn))
                      in
                      (e, r.Q.minor_words, r.Q.submit_s)
                  | None -> (Float.nan, Float.nan, Float.nan)
                in
                Some
                  ( j,
                    {
                      read_s;
                      write_s;
                      decode_s;
                      parse_s;
                      analyze_s;
                      encode_s;
                      instrs = Q.num_instructions c;
                      minor_words;
                      submit_s;
                      replayed_backend = (if engine = None then None else j.backend);
                    } )))
      jobs
  in
  Hashtbl.iter (fun _ s -> Q.close_session s) warm;
  close_in ic;
  close_out wc;
  (try Sys.remove req_path with Sys_error _ -> ());
  (try Sys.remove resp_path with Sys_error _ -> ());
  out

(* ---- The per-layer report ------------------------------------------------ *)

let backends = [ "arrays"; "decision-diagrams"; "mps"; "stabilizer" ]

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  absent : string list;
  table : string list;  (** printable lines *)
}

let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a))
let med l = Pct.median (finite (Array.of_list l))

let analyse (w : W.t) ~dir ~budget ~access_log ~metrics_before ~metrics_after ~untraced_p50_ms
    ~(samples : Load.sample list) =
  let log = read_access_log access_log in
  let all = jobs_of samples log in
  let opened = List.filter (fun j -> j.s.Load.phase = Load.Open) all in
  let measured = List.filter (fun j -> j.s.Load.phase <> Load.Warmup) all in
  let latency j = Load.latency j.s in
  (* Replay the middle band of the open loop first, then the rest. *)
  let by_latency = List.sort (fun a b -> compare (latency a) (latency b)) opened in
  let n = List.length by_latency in
  let band = List.filteri (fun i _ -> i >= 2 * n / 5 && i < max (2 * n / 5 + 1) (3 * n / 5)) by_latency in
  let rest = List.filter (fun j -> not (List.memq j band)) opened in
  let replayed = replay w ~dir ~budget (band @ rest) in
  let rp j = List.assq_opt j replayed in
  let metrics = ref [] and absent = ref [] in
  let put name unit v =
    if Float.is_finite v then metrics := (name, v, unit) :: !metrics
    else begin
      metrics := (name, 0.0, unit) :: !metrics;
      absent := name :: !absent
    end
  in
  let ns k j = field j k in
  let logged f j = Option.map f j.logged in
  let transport j = logged (fun l -> j.s.Load.fin -. j.s.Load.send -. (l.latency_ns /. 1e9)) j in
  let handler_self j =
    match (j.logged, ns "queue_wait_ns" j, ns "run_ns" j) with
    | Some l, Some q, Some r -> Some ((l.latency_ns -. q -. r) /. 1e9)
    | _ -> None
  in
  let rp_field f j = Option.map f (rp j) in
  let unattributed j =
    match (handler_self j, rp j) with
    | Some h, Some r when Float.is_finite r.encode_s ->
        Some (h -. (2.0 *. r.decode_s) -. r.parse_s -. r.encode_s)
    | _ -> None
  in
  let over js f = List.filter_map f js in
  (* http *)
  put "http.transport_us" "us" (us (med (over opened transport)));
  put "http.read_us" "us" (us (med (over opened (rp_field (fun r -> r.read_s)))));
  put "http.write_us" "us" (us (med (over opened (rp_field (fun r -> r.write_s)))));
  put "http.req_bytes" "bytes"
    (med (over opened (fun j -> Option.map (fun r -> float_of_int r.Serve.req_bytes) (Result.to_option j.s.Load.resp))));
  put "http.resp_bytes" "bytes"
    (med (over opened (fun j -> Option.map (fun r -> float_of_int r.Serve.resp_bytes) (Result.to_option j.s.Load.resp))));
  (* protocol, qasm, features *)
  put "protocol.decode_us" "us" (us (med (over opened (rp_field (fun r -> r.decode_s)))));
  put "protocol.encode_us" "us" (us (med (over opened (rp_field (fun r -> r.encode_s)))));
  put "qasm.parse_us" "us" (us (med (over opened (rp_field (fun r -> r.parse_s)))));
  put "qasm.parse_ns_per_instr" "ns"
    (med (over opened (rp_field (fun r -> r.parse_s *. 1e9 /. float_of_int (max 1 r.instrs)))));
  put "features.analyze_us" "us" (us (med (over opened (rp_field (fun r -> r.analyze_s)))));
  let total = float_of_int (List.length measured) in
  List.iter
    (fun b ->
      put ("auto.pick." ^ b) "frac"
        (float_of_int (List.length (List.filter (fun j -> j.backend = Some b) measured)) /. total))
    backends;
  (* server *)
  let qw = Array.of_list (over opened (fun j -> Option.map (fun q -> q /. 1e3) (ns "queue_wait_ns" j))) in
  put "server.queue_wait_p50_us" "us" (Pct.percentile 50.0 qw);
  put "server.queue_wait_p99_us" "us" (Pct.percentile 99.0 qw);
  put "server.handler_self_us" "us" (us (med (over opened handler_self)));
  put "server.unattributed_us" "us" (us (med (over opened unattributed)));
  (* sessions and engines *)
  let create_close =
    List.map
      (fun b ->
        let times = List.init 9 (fun _ -> Option.value (Q.create_close_s b) ~default:Float.nan) in
        (b, med times))
      backends
  in
  List.iter (fun (b, t) -> put ("session.create_close_us." ^ b) "us" (us t)) create_close;
  let run_total = List.fold_left (fun a j -> a +. Option.value (ns "run_ns" j) ~default:0.0) 0.0 measured in
  let cold_total =
    if w.W.warm then 0.0
    else
      List.fold_left
        (fun a j ->
          match Option.bind j.backend (fun b -> List.assoc_opt b create_close) with
          | Some t when Float.is_finite t -> a +. (t *. 1e9)
          | _ -> a)
        0.0 measured
  in
  put "session.cold_share" "frac" (if run_total > 0.0 then cold_total /. run_total else Float.nan);
  List.iter
    (fun b ->
      let mine = List.filter (fun j -> j.backend = Some b) measured in
      put ("engine.run_us." ^ b) "us" (med (over mine (fun j -> Option.map (fun r -> r /. 1e3) (ns "run_ns" j))));
      put ("engine.inprocess_us." ^ b) "us" (us (med (over mine (rp_field (fun r -> r.submit_s)))));
      put ("engine.minor_words_per_job." ^ b) "words"
        (med (over mine (rp_field (fun r -> r.minor_words)))))
    backends;
  (* dd *)
  let dd k = over measured (fun j -> Jsonv.num (Jsonv.path [ "stats"; "dd"; k ] j.resp)) in
  let delta name =
    match (Option.bind metrics_before (fun t -> prom_value t name), Option.bind metrics_after (fun t -> prom_value t name)) with
    | Some a, Some b -> b -. a
    | None, Some b -> b
    | _ -> Float.nan
  in
  let hits = delta "dd_cache_hits" and lookups = delta "dd_cache_lookups" in
  put "dd.compute_hit_rate" "frac"
    (if Float.is_finite lookups && lookups > 0.0 then hits /. lookups else Pct.mean (Array.of_list (dd "compute_hit_rate")));
  put "dd.unique_hit_rate" "frac" (Pct.mean (Array.of_list (dd "unique_hit_rate")));
  put "dd.peak_nodes" "count"
    (match dd "peak_nodes" with [] -> Float.nan | l -> List.fold_left Float.max 0.0 l);
  put "dd.gc_runs" "count" (delta "dd_gc_runs");
  (* arrays *)
  let arrays_jobs = List.filter (fun j -> j.backend = Some "arrays") measured in
  let gates, run_s =
    List.fold_left
      (fun (g, t) j ->
        match (rp j, ns "run_ns" j) with
        | Some r, Some rn -> (g +. float_of_int r.instrs, t +. (rn /. 1e9))
        | _ -> (g, t))
      (0.0, 0.0) arrays_jobs
  in
  put "arrays.gates_per_s" "1/s" (if run_s > 0.0 then gates /. run_s else Float.nan);
  put "sv.gates" "count" (delta "sv_gates");
  put "par.domains" "count"
    (Option.value (Option.bind metrics_after (fun t -> prom_value t "qdt_par_domains")) ~default:Float.nan);
  (* load generator *)
  let late = Array.of_list (List.map (fun j -> (j.s.Load.send -. j.s.Load.due) *. 1e3) opened) in
  put "loadgen.late_p99_ms" "ms" (Pct.percentile 99.0 late);
  let p50 = Pct.median (Array.of_list (List.map (fun j -> latency j) opened)) *. 1e3 in
  put "trace.overhead_frac" "frac" ((p50 /. untraced_p50_ms) -. 1.0);
  (* The split of the band around p50: rows add up to the band's mean
     latency, with the handler's unexplained time as the residual. *)
  let bmean f = Pct.mean (Array.of_list (over band f)) *. 1e6 in
  let rows =
    [
      ("loadgen.late", bmean (fun j -> Some (j.s.Load.send -. j.s.Load.due)));
      ("http.read (replayed)", bmean (rp_field (fun r -> r.read_s)));
      ("http.write (replayed)", bmean (rp_field (fun r -> r.write_s)));
      ( "http.socket (transport minus read and write)",
        bmean (fun j ->
            match (transport j, rp j) with
            | Some t, Some r -> Some (t -. r.read_s -. r.write_s)
            | _ -> None) );
      ("server.queue_wait", bmean (fun j -> Option.map (fun q -> q /. 1e9) (ns "queue_wait_ns" j)));
      ("engine.run", bmean (fun j -> Option.map (fun q -> q /. 1e9) (ns "run_ns" j)));
      ("protocol.decode (x2: handle_job and job_log_fields)", bmean (rp_field (fun r -> 2.0 *. r.decode_s)));
      ("qasm.parse", bmean (rp_field (fun r -> r.parse_s)));
      ("protocol.encode", bmean (rp_field (fun r -> r.encode_s)));
      ("server.unattributed", bmean unattributed);
    ]
  in
  let per_circuit =
    Array.to_list
      (Array.mapi
         (fun ci (c : W.circ) ->
           let mine = List.filter (fun j -> j.s.Load.req.W.circ = ci) measured in
           Printf.sprintf "  %-24s %5d jobs  run p50 %9.1f us  in-process %9.1f us" c.W.cname (List.length mine)
             (med (over mine (fun j -> Option.map (fun r -> r /. 1e3) (ns "run_ns" j))))
             (us (med (over mine (rp_field (fun r -> r.submit_s))))))
         w.W.circuits)
  in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 rows in
  let band_mean = bmean (fun j -> Some (latency j)) in
  let table =
    (Printf.sprintf "per-layer split of the open-loop p50 (%s, %d jobs around the median):" w.W.name
       (List.length band))
    :: List.map (fun (k, v) -> Printf.sprintf "  %-52s %10.1f us  %5.1f%%" k v (100.0 *. v /. band_mean)) rows
    @ [
        Printf.sprintf "  %-52s %10.1f us" "sum of rows" sum;
        Printf.sprintf "  %-52s %10.1f us" "band mean latency" band_mean;
        Printf.sprintf "  %-52s %10.1f us" "open-loop p50 (traced)" (p50 *. 1e3);
        Printf.sprintf "  engine run share of p50: %.1f%%"
          (100.0 *. bmean (fun j -> Option.map (fun q -> q /. 1e9) (ns "run_ns" j)) /. (p50 *. 1e3));
        Printf.sprintf "  trace.overhead_frac %.3f (untraced p50 %.3f ms), loadgen.late p99 %.3f ms"
          ((p50 /. untraced_p50_ms) -. 1.0) untraced_p50_ms (Pct.percentile 99.0 late);
        "engine run per circuit (served) and in-process replay, medians:";
      ]
    @ per_circuit
  in
  { metrics = List.rev !metrics; absent = List.rev !absent; table }
