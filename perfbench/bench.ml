(* Served-job benchmark for `qdt serve`.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --server EXE
     bench.exe --self-test

   Spawns the server as its own process with default flags, drives it
   from this process over at most nproc (and at most 2) keep-alive
   connections in an open-loop phase (seeded Poisson arrivals) and a
   closed-loop phase, checks every payload against an in-process
   reference, and prints the end-to-end metrics (--trace 0) or the
   per-layer metrics of a separate traced run (--trace 1) as the last
   line of standard output. *)

module W = Workload

let setup_reps_untraced = 7

(* ---- Stamping ----------------------------------------------------------- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some (String.trim s)

(* The commit of a git checkout, read from .git without running git;
   "none" outside a git repository. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read_file ".git/packed-refs" with
          | Some packed ->
              List.fold_left
                (fun acc line ->
                  match String.split_on_char ' ' line with
                  | [ c; name ] when name = r -> c
                  | _ -> acc)
                "none" (String.split_on_char '\n' packed)
          | None -> "none"))
  | Some c -> c
  | None -> "none"

let nproc () = Domain.recommended_domain_count ()

(* ---- One run: set up, open loop, closed loop ----------------------------- *)

type run = {
  setup_s : float list;
  samples : Load.sample list;  (** warm-up, open and closed *)
  phase_s : float;  (** length of each of the two phases *)
  closed_t0 : float;
  rss_mb : float option;
  metrics_before : string option;
  metrics_after : string option;
  flags : string list;
}

let scrape port =
  let c = Serve.connect port in
  let r = Serve.get c "/metrics" in
  Serve.close c;
  match r with Ok { Serve.status = 200; body; _ } -> Some body | _ -> None

let run_once (w : W.t) ~server ~seed ~seconds ~conns ~setup_reps ~access_log =
  let flags = match access_log with Some f -> [ "--access-log"; f ] | None -> [] in
  let setup () =
    let t0 = Serve.now () in
    let p = Serve.spawn ~exe:server ~flags in
    match
      Serve.wait_healthy p.Serve.port;
      let clients = List.init conns (Load.connect ~port:p.Serve.port) in
      let warm = Load.warmup w clients in
      (clients, warm)
    with
    | clients, warm -> (p, clients, warm, Serve.now () -. t0)
    | exception e ->
        Serve.stop p;
        raise e
  in
  (* Earlier set-ups are timed and torn down; the last one is measured. *)
  let rec setups k acc =
    let p, clients, warm, t = setup () in
    if k <= 1 then (p, clients, warm, List.rev (t :: acc))
    else begin
      List.iter Load.close clients;
      Serve.stop p;
      setups (k - 1) (t :: acc)
    end
  in
  let p, clients, warm, setup_s = setups setup_reps [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Load.close clients;
      Serve.stop p)
    (fun () ->
      let metrics_before = if access_log <> None then scrape p.Serve.port else None in
      let half = float_of_int seconds /. 2.0 in
      let opened = Load.open_loop w ~seed ~duration:half clients in
      let closed_t0, closed = Load.closed_loop w ~duration:half clients in
      let metrics_after = if access_log <> None then scrape p.Serve.port else None in
      {
        setup_s;
        samples = warm @ opened @ closed;
        phase_s = half;
        closed_t0;
        rss_mb = Serve.vm_hwm_mb p;
        metrics_before;
        metrics_after;
        flags = p.Serve.flags;
      })

(* ---- Checking and end-to-end metrics -------------------------------------- *)

type checked = { sample : Load.sample; error : string option }

let check oracle (samples : Load.sample list) =
  List.map
    (fun (s : Load.sample) ->
      let error =
        match s.resp with
        | Error e -> Some e
        | Ok r when r.Serve.status <> 200 -> Some (Printf.sprintf "HTTP %d: %s" r.status r.body)
        | Ok r -> ( match Oracle.check oracle s.req r.body with Ok () -> None | Error e -> Some e)
      in
      { sample = s; error })
    samples

(* The oracle must reject a corrupted copy of a body it accepted. *)
let self_check oracle checked =
  match List.find_opt (fun c -> c.error = None) checked with
  | None -> false
  | Some c -> (
      match c.sample.resp with
      | Ok r -> Result.is_error (Oracle.check oracle c.sample.req (Oracle.corrupt r.Serve.body))
      | Error _ -> false)

let open_latencies_ms checked =
  Array.of_list
    (List.filter_map
       (fun c -> if c.sample.phase = Load.Open then Some (Load.latency c.sample *. 1e3) else None)
       checked)

let fmt_num v = Jsonv.Num v

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Jsonv.Bool correct);
            ("attempted", Jsonv.Int attempted);
            ("failed", Jsonv.Int failed);
            ( "metrics",
              Jsonv.Obj
                (List.map
                   (fun (name, v, unit) -> (name, Jsonv.Obj [ ("value", fmt_num v); ("unit", Jsonv.Str unit) ]))
                   metrics) );
          ]))

let bench ~name ~seed ~seconds ~trace ~server =
  let conns = max 1 (min 2 (nproc ())) in
  let w = W.make ~name ~seed ~conns in
  let oracle = Oracle.build w in
  let dir = Filename.concat ".bench_build" "perfbench" in
  (try Unix.mkdir ".bench_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let untraced =
    run_once w ~server ~seed ~seconds ~conns
      ~setup_reps:(if trace then 1 else setup_reps_untraced)
      ~access_log:None
  in
  let checked = check oracle untraced.samples in
  let oracle_ok = self_check oracle checked in
  let lat = open_latencies_ms checked in
  let n_open = Array.length lat in
  (* The tail percentile depends only on the workload's expected job
     count, so every run of a workload reports the same one. *)
  let expected_open = w.W.rate *. (float_of_int seconds /. 2.0) in
  let tail_p = Pct.tail_percentile (int_of_float expected_open) in
  let ok_samples phase = List.filter_map (fun c -> if c.sample.phase = phase && c.error = None then Some c.sample else None) checked in
  let p50 = Pct.median lat in
  let closed_ok = ok_samples Load.Closed in
  let stamp =
    Jsonv.Obj
      [
        ("workload", Jsonv.Str name);
        ("seed", Jsonv.Int seed);
        ("seconds", Jsonv.Int seconds);
        ("nproc", Jsonv.Int (nproc ()));
        ("connections", Jsonv.Int conns);
        ("ocaml", Jsonv.Str Sys.ocaml_version);
        ("commit", Jsonv.Str (git_commit ()));
        ("server_flags", Jsonv.Arr (List.map (fun f -> Jsonv.Str f) untraced.flags));
        ("open_loop_rate_per_s", Jsonv.Num w.W.rate);
        ("open_loop_jobs", Jsonv.Int n_open);
        ("tail_percentile", Jsonv.Num tail_p);
        ("oracle_self_test", Jsonv.Bool oracle_ok);
      ]
  in
  print_endline ("stamp " ^ Jsonv.to_string stamp);
  List.iter
    (fun c ->
      match c.error with
      | Some e -> Printf.printf "failed job (conn %d, circuit %s): %s\n" c.sample.conn w.W.circuits.(c.sample.req.W.circ).W.cname e
      | None -> ())
    checked;
  let attempted = List.length checked in
  let failed = List.length (List.filter (fun c -> c.error <> None) checked) in
  let rates = Load.window_rates ~t0:untraced.closed_t0 ~duration:untraced.phase_s closed_ok in
  Printf.printf "closed-loop jobs/s by window: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") rates)));
  let e2e =
    [
      ("setup_s", Pct.median (Array.of_list untraced.setup_s), "s");
      ("jobs_per_s", Pct.median rates, "1/s");
      ("p50_ms", p50, "ms");
      ("peak_rss_mb", Option.value untraced.rss_mb ~default:Float.nan, "MB");
    ]
  in
  (* The tail does not repeat within a tenth from run to run on a shared
     host, so it is reported with the per-layer numbers, as is the
     failed share, which is 0 when all is well. *)
  let tail = [ ("tail_ms", Pct.percentile tail_p lat, "ms") ] in
  Printf.printf
    "%s: %d open-loop jobs (p%.0f is the tail), %d correct closed-loop jobs in %.1f s\n\
     jobs_per_s is the median over %d windows of the closed loop\n"
    name n_open tail_p (List.length closed_ok) untraced.phase_s Load.windows;
  List.iter (fun (k, v, u) -> Printf.printf "  %-14s %12.4f %s\n" k v u) (e2e @ tail);
  if not trace then
    print_result ~correct:(failed = 0 && oracle_ok) ~attempted ~failed e2e
  else begin
    let access_log = Filename.concat dir (Printf.sprintf "access-%s-%d-%d.jsonl" name seed (Unix.getpid ())) in
    (try Sys.remove access_log with Sys_error _ -> ());
    let traced =
      run_once w ~server ~seed ~seconds ~conns ~setup_reps:1 ~access_log:(Some access_log)
    in
    let tchecked = check oracle traced.samples in
    let tfailed = List.length (List.filter (fun c -> c.error <> None) tchecked) in
    let layers =
      Layers.analyse w ~dir ~budget:(float_of_int seconds) ~access_log
        ~metrics_before:traced.metrics_before ~metrics_after:traced.metrics_after ~untraced_p50_ms:p50
        ~samples:traced.samples
    in
    (try Sys.remove access_log with Sys_error _ -> ());
    List.iter print_endline layers.Layers.table;
    List.iter (fun (k, v, u) -> Printf.printf "  %-44s %14.4f %s\n" k v u) layers.Layers.metrics;
    if layers.Layers.absent <> [] then
      Printf.printf "absent (reported as 0): %s\n" (String.concat ", " layers.Layers.absent);
    let attempted = attempted + List.length tchecked and failed = failed + tfailed in
    print_result
      ~correct:(failed = 0 && oracle_ok)
      ~attempted ~failed
      (tail @ (("failed_frac", float_of_int failed /. float_of_int (max 1 attempted), "frac") :: layers.Layers.metrics))
  end

(* ---- The benchmark's own tests ----------------------------------------- *)

let self_test () =
  let ok = ref true in
  let expect what b =
    Printf.printf "%s %s\n" (if b then "ok  " else "FAIL") what;
    if not b then ok := false
  in
  (* Streams and schedules are a pure function of workload and seed. *)
  List.iter
    (fun name ->
      let a = W.make ~name ~seed:7 ~conns:2 and b = W.make ~name ~seed:7 ~conns:2 in
      let bytes (w : W.t) =
        String.concat "\n" (Array.to_list (Array.map (fun (r : W.req) -> r.W.body) (Array.concat (Array.to_list w.W.streams))))
      in
      let sched (w : W.t) = W.arrivals w ~seed:7 ~conn:1 ~conns:2 ~duration:5.0 in
      expect (name ^ ": regenerated stream is byte-identical") (bytes a = bytes b);
      expect (name ^ ": regenerated arrival schedule is identical") (sched a = sched b);
      let c = W.make ~name ~seed:8 ~conns:2 in
      expect (name ^ ": another seed gives another stream") (bytes a <> bytes c))
    W.names;
  (* Percentiles on known samples. *)
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  expect "p50 of 1..100 is 50" (Pct.percentile 50.0 hundred = 50.0);
  expect "p99 of 1..100 is 99" (Pct.percentile 99.0 hundred = 99.0);
  expect "p90 of 1..100 is 90" (Pct.percentile 90.0 hundred = 90.0);
  expect "p100 of 1..100 is 100" (Pct.percentile 100.0 hundred = 100.0);
  expect "median of [3;1;2] is 2" (Pct.median [| 3.0; 1.0; 2.0 |] = 2.0);
  expect "tail of 1000 jobs is p99" (Pct.tail_percentile 1000 = 99.0);
  expect "tail of 500 jobs is p95" (Pct.tail_percentile 500 = 95.0);
  expect "tail of 150 jobs is p90" (Pct.tail_percentile 150 = 90.0);
  (* The oracle accepts in-process answers and flags corrupted ones. *)
  let w = W.make ~name:"auto-cold" ~seed:7 ~conns:1 in
  let o = Oracle.build w in
  Array.iter
    (fun (r : W.req) ->
      let c = w.W.circuits.(r.W.circ) in
      match Qdt_api.run_once "arrays" o.Oracle.parsed.(r.W.circ) (Oracle.job_of r.W.kind) with
      | Error e -> expect (c.W.cname ^ ": in-process arrays run: " ^ e) false
      | Ok p ->
          let result =
            match p with
            | Qdt_api.State v ->
                Printf.sprintf {|{"kind": "state", "dim": %d, "amplitudes": [%s]}|} (Array.length v)
                  (String.concat ", "
                     (List.filter_map Fun.id
                        (Array.to_list
                           (Array.mapi
                              (fun k (re, im) ->
                                if (re *. re) +. (im *. im) > 1e-12 then Some (Printf.sprintf "[%d, %.6g, %.6g]" k re im)
                                else None)
                              v))))
            | Qdt_api.Amp (re, im) -> Printf.sprintf {|{"kind": "amplitude", "re": %.6g, "im": %.6g}|} re im
            | Qdt_api.Counts cs ->
                Printf.sprintf {|{"kind": "counts", "counts": [%s]}|}
                  (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "[%d, %d]" k n) cs))
            | Qdt_api.Expectation e -> Printf.sprintf {|{"kind": "expectation", "value": %.6g}|} e
          in
          let body = Printf.sprintf {|{"ok": true, "backend": "arrays", "result": %s}|} result in
          let key = Printf.sprintf "%s %s" c.W.cname (Workload.kind_json r.W.kind) in
          expect (key ^ ": correct body accepted") (Oracle.check o r body = Ok ());
          expect (key ^ ": corrupted body flagged") (Result.is_error (Oracle.check o r (Oracle.corrupt body))))
    (Array.sub w.W.streams.(0) 0 (Array.length w.W.streams.(0) / 16));
  if !ok then print_endline "self-test passed" else (print_endline "self-test FAILED"; exit 1)

(* ---- Command line ------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let server = ref "" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME dd-warm | sv-dense | auto-cold");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (half open loop, half closed loop)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer metrics of a traced run");
      ("--server", Arg.Set_string server, "EXE the qdt command-line executable");
      ("--self-test", Arg.Set selftest, " run the benchmark's own tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --server EXE";
  if !selftest then self_test ()
  else begin
    if not (List.mem !workload W.names) then (prerr_endline ("unknown workload: " ^ !workload); exit 2);
    if !server = "" || not (Sys.file_exists !server) then (prerr_endline "no server executable"; exit 2);
    if !seconds < 1 then (prerr_endline "--seconds must be positive"; exit 2);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    bench ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace <> 0) ~server:!server
  end
