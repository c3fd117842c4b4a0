(* qdt — command-line front end: show / simulate / compile / verify / gen /
   export subcommands over OpenQASM files. *)

open Cmdliner
module Circuit = Qdt_circuit.Circuit
module Generators = Qdt_circuit.Generators
module Qasm = Qdt_circuit.Qasm
module Draw = Qdt_circuit.Draw

let read_circuit path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  Qasm.of_string src

let load path =
  match read_circuit path with
  | c -> Ok c
  | exception Qasm.Parse_error msg -> Error (`Msg (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error (`Msg msg)

let circuit_arg =
  let parse path = load path in
  let print ppf _ = Format.fprintf ppf "<circuit>" in
  Arg.conv (parse, print)

let file_pos ~doc n = Arg.(required & pos n (some circuit_arg) None & info [] ~docv:"FILE" ~doc)

let bitstring n k =
  String.init n (fun i -> if k land (1 lsl (n - 1 - i)) <> 0 then '1' else '0')

(* ------------------------------------------------------------------ *)
(* Observability flags (shared by simulate / compile / verify)         *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record nested spans of the run and write them to FILE \
               (Chrome trace-event JSON by default — load it in Perfetto \
               or chrome://tracing).")

let trace_format_arg =
  Arg.(value & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
       & info [ "trace-format" ] ~docv:"FORMAT"
           ~doc:"Trace output format: chrome (one JSON document) or jsonl \
                 (one event per line).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Enable the metrics registry (counters, gauges, histograms) \
               and print every instrument after the run.")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Domains for parallel kernels, shot loops and trajectory \
               runs (default: $(b,QDT_JOBS), else the machine's \
               recommended domain count). $(b,--jobs 1) disables parallel \
               execution and is bit-identical to a serial build.")

let apply_jobs = function
  | None -> ()
  | Some j ->
      if j < 1 then begin
        prerr_endline "--jobs must be >= 1";
        exit 1
      end;
      Qdt.Par.set_jobs j

let profile_arg =
  Arg.(value & opt ~vopt:(Some "profile.folded") (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Profile the run: aggregate the span trace into a hotspot \
                 table (printed after the run) and write folded stacks to \
                 FILE (default profile.folded) for flamegraph.pl or \
                 speedscope.")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ]
         ~doc:"Number of rows in the profile hotspot table.")

let report_arg =
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
         ~doc:"Bracket the run in a report (metrics diff, resource \
               watermarks, circuit features, chosen backend, hotspots) \
               and write the JSON artifact to FILE.  Render it with \
               $(b,qdt report FILE).")

let dump_on_error_arg =
  Arg.(value & flag & info [ "dump-on-error" ]
         ~doc:"On any exception or backend decline, write a crash report \
               (report-so-far, error, trace tail) to the $(b,--report) \
               path, or qdt-crash-report.json when none was given.")

let warn_dropped what =
  let dropped = Qdt.Obs.Trace.dropped_events () in
  if dropped > 0 then
    Printf.eprintf
      "%s: ring full, %d oldest events dropped — enlarge the ring or shrink the run\n%!"
      what dropped

let print_profile ~top ~folded_path =
  let p = Qdt.Obs.Profile.of_events (Qdt.Obs.Trace.events ()) in
  warn_dropped "profile";
  print_string (Qdt.Obs.Profile.render ~top p);
  let oc = open_out folded_path in
  output_string oc (Qdt.Obs.Profile.folded_stacks p);
  close_out oc;
  Printf.printf "folded stacks: wrote %s (%d stacks)\n" folded_path
    (List.length (Qdt.Obs.Profile.folded p))

(* [with_obs] enables the requested subsystems, runs [f], then exports the
   trace, prints the profile, and prints the metrics.  Early [exit]s
   inside [f] skip the export on purpose: a partial trace of a failed run
   would be misleading. *)
let with_obs ?(profile = None) ?(top = 10) ~trace ~trace_format ~metrics f =
  if metrics then Qdt.Obs.Metrics.set_enabled true;
  if trace <> None || profile <> None then Qdt.Obs.Trace.set_enabled true;
  let result = f () in
  (match trace with
  | None -> ()
  | Some path ->
      (match trace_format with
      | `Chrome -> Qdt.Obs.Trace.export_chrome path
      | `Jsonl -> Qdt.Obs.Trace.export_jsonl path);
      let n = List.length (Qdt.Obs.Trace.events ()) in
      warn_dropped "trace";
      Printf.printf "trace: wrote %d events to %s\n" n path);
  (match profile with
  | None -> ()
  | Some folded_path -> print_profile ~top ~folded_path);
  if metrics then begin
    print_string "metrics:\n";
    print_string (Qdt.Obs.Metrics.render (Qdt.Obs.Metrics.snapshot ()))
  end;
  result

(* ------------------------------------------------------------------ *)
(* show                                                                *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run c =
    print_string (Draw.render c);
    Printf.printf "\nqubits: %d  instructions: %d  depth: %d  t-count: %d\n"
      (Circuit.num_qubits c) (Circuit.count_total c) (Circuit.depth c) (Circuit.t_count c);
    List.iter (fun (name, k) -> Printf.printf "  %-8s %d\n" name k) (Circuit.gate_counts c)
  in
  let term = Term.(const run $ file_pos ~doc:"OpenQASM file to display" 0) in
  Cmd.v (Cmd.info "show" ~doc:"Draw a circuit and print its statistics") term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let unknown_backend name =
  match Qdt.Registry.suggest name with
  | Some s -> Printf.sprintf "unknown backend %s (did you mean %s?)" name s
  | None ->
      Printf.sprintf "unknown backend %s (known: %s)" name
        (String.concat ", " (Qdt.Registry.names ()))

(* A plain-string backend name validated against the registry, so a typo
   gets a closest-match suggestion instead of cmdliner's bare enum error. *)
let backend_name_arg =
  let parse s =
    if Option.is_some (Qdt.Registry.find_session s) then Ok s
    else Error (`Msg (unknown_backend s))
  in
  Arg.conv (parse, Format.pp_print_string)

let engine_of name =
  match Qdt.Registry.find_session name with
  | Some engine -> engine
  | None ->
      prerr_endline (unknown_backend name);
      exit 1

let backend_arg =
  Arg.(value & opt backend_name_arg "decision-diagrams" & info [ "backend"; "b" ] ~docv:"BACKEND"
         ~doc:"Simulation backend: arrays, decision-diagrams, tensor-network, mps, \
               stabilizer, or auto (portfolio dispatch).")

(* The job simulate / profile / run submit for one circuit: with
   [shots = 0] the full state of its unitary part (measurements, resets
   and classical control stripped), else [shots] samples of the whole
   circuit. *)
let job_for ~shots ~seed c =
  if shots = 0 then
    ( Qdt.Job.Full_state,
      List.fold_left
        (fun acc i ->
          match i with
          | Circuit.Measure _ | Circuit.Reset _ | Circuit.If _ -> acc
          | _ -> Circuit.add i acc)
        (Circuit.empty (Circuit.num_qubits c))
        (Circuit.instructions c) )
  else (Qdt.Job.Sample { seed; shots }, c)

(* The one result printer of simulate / profile / run: a state lists the
   amplitudes above [threshold]; counts of a measuring circuit are keyed
   by the classical register, of a measure-free circuit by every qubit. *)
let print_payload ~threshold c = function
  | Qdt.Job.State state ->
      Qdt.Linalg.Vec.iteri
        (fun k amp ->
          let p = Qdt.Linalg.Cx.norm2 amp in
          if p > threshold then
            Printf.printf "  |%s>  %-22s  p=%.6f\n"
              (bitstring (Circuit.num_qubits c) k)
              (Qdt.Linalg.Cx.to_string amp) p)
        state
  | Qdt.Job.Counts counts ->
      let key_bits =
        if Circuit.has_measure c then Circuit.num_clbits c else Circuit.num_qubits c
      in
      List.iter
        (fun (k, count) -> Printf.printf "  %s  %d\n" (bitstring key_bits k) count)
        counts
  | Qdt.Job.Amplitude_of amp -> Printf.printf "  %s\n" (Qdt.Linalg.Cx.to_string amp)
  | Qdt.Job.Expectation v -> Printf.printf "  <Z> = %.9f\n" v

let default_threshold = 1e-9

let threshold_arg =
  Arg.(value & opt float default_threshold & info [ "threshold" ]
         ~doc:"Hide amplitudes below this probability.")

let print_stats stats = Printf.printf "stats: %s\n" (Qdt.Backend.stats_to_string stats)

let backend_failure err =
  prerr_endline (Qdt.Backend.error_to_string err);
  exit 1

(* The report bracket around one simulate run: start before dispatch (so
   the metrics diff and watermarks are scoped to the run), attach the
   circuit-feature and invocation sections up front — they must survive a
   crash dump — and the backend section once stats exist. *)
let report_backend_section r (stats : Qdt.Backend.stats) =
  let j = Qdt.Obs.Json.string in
  Qdt.Obs.Report.add_section r ~name:"backend"
    ~json:(Printf.sprintf "{\"name\": %s, \"reason\": %s}" (j stats.Qdt.Backend.backend)
             (match stats.Qdt.Backend.note with Some n -> j n | None -> "null"))

let simulate_cmd =
  let run c backend_name shots seed threshold gc_threshold cache_bits jobs trace
      trace_format metrics profile top report dump_on_error =
    apply_jobs jobs;
    (* Engines are created through the fixed SESSION signature, so DD
       memory-management knobs travel through the package defaults. *)
    (match gc_threshold with
    | Some t ->
        if t < 0 then begin
          prerr_endline "--dd-gc-threshold must be >= 0 (0 disables GC)";
          exit 1
        end;
        Qdt.Dd.Pkg.default_gc_threshold := t
    | None -> ());
    (match cache_bits with
    | Some b ->
        if b < 1 || b > 24 then begin
          prerr_endline "--dd-cache-bits must be between 1 and 24";
          exit 1
        end;
        Qdt.Dd.Pkg.default_cache_bits := b
    | None -> ());
    let engine = engine_of backend_name in
    let job, target = job_for ~shots ~seed c in
    with_obs ~profile ~top ~trace ~trace_format ~metrics @@ fun () ->
    let rep =
      if report <> None || dump_on_error then begin
        if dump_on_error then Printexc.record_backtrace true;
        let r = Qdt.Obs.Report.start () in
        Qdt.Obs.Report.add_section r ~name:"circuit"
          ~json:(Qdt.Features.to_json (Qdt.Features.analyze c));
        Qdt.Obs.Report.add_section r ~name:"invocation"
          ~json:(Printf.sprintf
                   "{\"backend\": %s, \"shots\": %d, \"seed\": %d, \"jobs\": %d}"
                   (Qdt.Obs.Json.string backend_name) shots seed (Qdt.Par.jobs ()));
        Some r
      end
      else None
    in
    let finish_report stats =
      match rep with
      | None -> ()
      | Some r ->
          report_backend_section r stats;
          let json = Qdt.Obs.Report.finish r in
          (match report with
          | Some path ->
              Qdt.Obs.Report.write_file path json;
              Printf.printf "report: wrote %s\n" path
          | None -> ())
    in
    let crash_dump msg backtrace =
      match rep with
      | Some r when dump_on_error ->
          let json = Qdt.Obs.Report.crash r ~error:msg ~backtrace in
          let path = Option.value report ~default:"qdt-crash-report.json" in
          Qdt.Obs.Report.write_file path json;
          Printf.eprintf "crash report: wrote %s\n%!" path
      | _ -> ()
    in
    let declined err =
      crash_dump (Qdt.Backend.error_to_string err) "";
      backend_failure err
    in
    (* The root span brackets only the backend call (not result printing),
       so the profile's total matches the stats wall time. *)
    let spanned f =
      match Qdt.Obs.Trace.with_span "qdt.simulate" f with
      | v -> v
      | exception e ->
          crash_dump (Printexc.to_string e) (Printexc.get_backtrace ());
          raise e
    in
    match spanned (fun () -> Qdt.Backend.run_once engine target job) with
    | Error err -> declined err
    | Ok (payload, stats) ->
        if shots = 0 then
          Printf.printf "final state (backend: %s):\n" stats.Qdt.Backend.backend
        else
          Printf.printf "counts over %d shots (backend: %s):\n" shots
            stats.Qdt.Backend.backend;
        print_payload ~threshold c payload;
        print_stats stats;
        finish_report stats
  in
  let shots =
    Arg.(value & opt int 0 & info [ "shots" ] ~doc:"Sample N shots instead of printing the state.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"RNG seed.") in
  let gc_threshold =
    Arg.(value & opt (some int) None & info [ "dd-gc-threshold" ] ~docv:"NODES"
           ~doc:"DD backend: run mark-and-sweep GC when the unique table grows past \
                 NODES entries (0 disables collection).")
  in
  let cache_bits =
    Arg.(value & opt (some int) None & info [ "dd-cache-bits" ] ~docv:"BITS"
           ~doc:"DD backend: each bounded compute cache, and the gate-DD cache, \
                 holds 2^BITS entries.")
  in
  let term =
    Term.(const run $ file_pos ~doc:"OpenQASM file to simulate" 0 $ backend_arg $ shots $ seed
          $ threshold_arg $ gc_threshold $ cache_bits $ jobs_arg $ trace_arg $ trace_format_arg
          $ metrics_arg $ profile_arg $ top_arg $ report_arg $ dump_on_error_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate a circuit with a chosen data structure") term

(* ------------------------------------------------------------------ *)
(* run (batch mode over one warm session)                              *)
(* ------------------------------------------------------------------ *)

(* Like [circuit_arg] but keeps the path for per-job output labels. *)
let circuit_with_path_arg =
  let parse path = Result.map (fun c -> (path, c)) (load path) in
  let print ppf (path, _) = Format.pp_print_string ppf path in
  Arg.conv (parse, print)

let run_cmd =
  let run files extra backend_name shots seed threshold jobs trace trace_format metrics =
    apply_jobs jobs;
    let circuits = files @ extra in
    if circuits = [] then begin
      prerr_endline "qdt run: no circuits given (positional FILEs or --circuit FILE)";
      exit 1
    end;
    let (module S : Qdt.Backend.SESSION) = engine_of backend_name in
    with_obs ~trace ~trace_format ~metrics @@ fun () ->
    (* One session for the whole batch: backend state (DD unique table and
       compute caches, statevector buffers, tableau rows) stays warm
       between jobs. *)
    let session = S.create () in
    let total = List.length circuits in
    let failures = ref 0 in
    List.iteri
      (fun i (path, c) ->
        let job, target = job_for ~shots ~seed c in
        Printf.printf "[%d/%d] %s: %s\n" (i + 1) total path (Qdt.Job.describe job);
        match S.submit session target job with
        | Error err ->
            incr failures;
            Printf.printf "  error: %s\n" (Qdt.Backend.error_to_string err)
        | Ok (payload, stats) ->
            print_payload ~threshold c payload;
            Printf.printf "  ";
            print_stats stats)
      circuits;
    S.close session;
    if !failures > 0 then exit 1
  in
  let files =
    Arg.(value & pos_all circuit_with_path_arg [] & info [] ~docv:"FILE"
           ~doc:"OpenQASM files to run in order through one session.")
  in
  let extra =
    Arg.(value & opt_all circuit_with_path_arg [] & info [ "circuit" ] ~docv:"FILE"
           ~doc:"Additional circuit (repeatable); appended after the \
                 positional files.")
  in
  let shots =
    Arg.(value & opt int 0 & info [ "shots" ]
           ~doc:"Sample N shots per circuit instead of printing each state.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"RNG seed (per job).") in
  let term =
    Term.(const run $ files $ extra $ backend_arg $ shots $ seed $ threshold_arg
          $ jobs_arg $ trace_arg $ trace_format_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a batch of circuits through one persistent backend session \
             (warm unique tables, compute caches and buffers between jobs)")
    term

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run path prometheus =
    let src =
      try
        let ic = open_in path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        s
      with Sys_error msg ->
        prerr_endline msg;
        exit 1
    in
    if prometheus then begin
      (* Render the report's run-scoped metrics section in Prometheus
         text exposition format (the shape `qdt serve` will expose). *)
      match Qdt.Obs.Json.parse src with
      | Error e ->
          prerr_endline (path ^ ": not valid JSON: " ^ e);
          exit 1
      | Ok root -> (
          match Qdt.Obs.Json.member "metrics" root with
          | Some (Qdt.Obs.Json.Object fields) ->
              let snapshot =
                List.filter_map
                  (fun (name, v) ->
                    match v with
                    | Qdt.Obs.Json.Number x ->
                        (* Counters and gauges are indistinguishable in the
                           artifact; render integral values as counters. *)
                        if Float.is_integer x then
                          Some (name, Qdt.Obs.Metrics.Counter_v (int_of_float x))
                        else Some (name, Qdt.Obs.Metrics.Gauge_v x)
                    | _ -> None)
                  fields
              in
              print_string (Qdt.Obs.Metrics.render_prometheus snapshot)
          | _ ->
              prerr_endline (path ^ ": no metrics section");
              exit 1)
    end
    else
      match Qdt.Obs.Report.render src with
      | rendered -> print_string rendered
      | exception Failure msg ->
          prerr_endline (path ^ ": " ^ msg);
          exit 1
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Report artifact written by $(b,qdt simulate --report).")
  in
  let prometheus =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"Print the report's run-scoped metrics in Prometheus text \
                 exposition format instead of the human-readable summary.")
  in
  let term = Term.(const run $ path $ prometheus) in
  Cmd.v (Cmd.info "report" ~doc:"Pretty-print a run report artifact") term

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

(* [qdt profile] is [simulate] plus the hotspot table: run the circuit
   once with tracing on, print its result, aggregate the span ring into a
   profile (Qdt_obs.Profile), print the top-N table and write folded
   stacks. *)
let profile_cmd =
  let run c backend_name shots seed jobs top folded capacity =
    apply_jobs jobs;
    if capacity < 2 then begin
      prerr_endline "--ring-capacity must be >= 2";
      exit 1
    end;
    let engine = engine_of backend_name in
    let job, target = job_for ~shots ~seed c in
    Qdt.Obs.Trace.configure ~capacity ();
    Qdt.Obs.Trace.set_enabled true;
    let outcome =
      Qdt.Obs.Trace.with_span "qdt.profile" (fun () ->
          Qdt.Backend.run_once engine target job)
    in
    Qdt.Obs.Trace.set_enabled false;
    match outcome with
    | Error err -> backend_failure err
    | Ok (payload, stats) ->
        Printf.printf "profiled %s (%d qubits, %d instructions, backend: %s)\n"
          (if shots = 0 then "simulate" else Printf.sprintf "sample --shots %d" shots)
          (Circuit.num_qubits c) (Circuit.count_total c) stats.Qdt.Backend.backend;
        print_payload ~threshold:default_threshold c payload;
        print_profile ~top ~folded_path:folded;
        print_stats stats
  in
  let shots =
    Arg.(value & opt int 0 & info [ "shots" ]
           ~doc:"Profile sampling N shots instead of full simulation.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"RNG seed.") in
  let folded =
    Arg.(value & opt string "profile.folded" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the folded stacks (flamegraph.pl / speedscope).")
  in
  let capacity =
    Arg.(value & opt int (1 lsl 20) & info [ "ring-capacity" ] ~docv:"EVENTS"
           ~doc:"Trace ring capacity in events (two per span); profiles of \
                 runs that overflow it are truncated and flagged.")
  in
  let term =
    Term.(const run $ file_pos ~doc:"OpenQASM file to profile" 0 $ backend_arg $ shots
          $ seed $ jobs_arg $ top_arg $ folded $ capacity)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a circuit under the span tracer and print where the time went")
    term

(* ------------------------------------------------------------------ *)
(* backends                                                            *)
(* ------------------------------------------------------------------ *)

let backends_cmd =
  let run () =
    let mark b = if b then "yes" else "-" in
    Printf.printf "%-18s %-6s %-5s %-7s %-7s %-11s %-9s %-9s %s\n" "backend" "state"
      "amp" "sample" "<Z>" "measure" "dynamic" "clifford" "max-qubits";
    List.iter
      (fun (module S : Qdt.Backend.SESSION) ->
        let c = S.capabilities in
        Printf.printf "%-18s %-6s %-5s %-7s %-7s %-11s %-9s %-9s %s\n" S.name
          (mark c.Qdt.Backend.full_state)
          (mark c.Qdt.Backend.amplitude)
          (mark c.Qdt.Backend.sample)
          (mark c.Qdt.Backend.expectation_z)
          (mark c.Qdt.Backend.supports_nonunitary)
          (mark c.Qdt.Backend.dynamic)
          (if c.Qdt.Backend.clifford_only then "only" else "-")
          (match c.Qdt.Backend.max_qubits with
          | Some m -> string_of_int m
          | None -> "unbounded"))
      (Qdt.Registry.all ())
  in
  let term = Term.(const run $ const ()) in
  Cmd.v (Cmd.info "backends" ~doc:"List registered backends and their capabilities") term

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let coupling_arg =
  let parse s =
    let parts = String.split_on_char ':' s in
    match parts with
    | [ "line"; n ] -> Ok (Qdt.Compile.Coupling.line (int_of_string n))
    | [ "ring"; n ] -> Ok (Qdt.Compile.Coupling.ring (int_of_string n))
    | [ "grid"; r; c ] ->
        Ok (Qdt.Compile.Coupling.grid ~rows:(int_of_string r) ~cols:(int_of_string c))
    | [ "star"; n ] -> Ok (Qdt.Compile.Coupling.star (int_of_string n))
    | [ "full"; n ] -> Ok (Qdt.Compile.Coupling.fully_connected (int_of_string n))
    | [ "qx5" ] -> Ok Qdt.Compile.Coupling.ibm_qx5
    | _ -> Error (`Msg "expected line:N, ring:N, grid:R:C, star:N, full:N or qx5")
  in
  let print ppf _ = Format.fprintf ppf "<coupling>" in
  Arg.conv (parse, print)

let compile_cmd =
  let run c coupling no_optimize output trace trace_format metrics =
    let compiled =
      with_obs ~trace ~trace_format ~metrics (fun () ->
          Qdt.compile ~optimize:(not no_optimize) ~coupling c)
    in
    Printf.printf "added swaps: %d  removed gates: %d  depth: %d -> %d\n"
      compiled.Qdt.added_swaps compiled.Qdt.removed_gates (Circuit.depth c)
      (Circuit.depth compiled.Qdt.circuit);
    let text = Qasm.to_string compiled.Qdt.circuit in
    match output with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  let coupling =
    Arg.(required & opt (some coupling_arg) None & info [ "coupling"; "c" ] ~docv:"MAP"
           ~doc:"Target coupling map (line:N, ring:N, grid:R:C, star:N, full:N, qx5).")
  in
  let no_optimize = Arg.(value & flag & info [ "no-optimize" ] ~doc:"Skip peephole optimization.") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let term =
    Term.(const run $ file_pos ~doc:"OpenQASM file to compile" 0 $ coupling $ no_optimize $ output
          $ trace_arg $ trace_format_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Route a circuit onto a coupling map and optimize it") term

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let run c1 c2 checker trace trace_format metrics =
    let verdict =
      with_obs ~trace ~trace_format ~metrics (fun () -> Qdt.equivalent ~checker c1 c2)
    in
    Printf.printf "%s: %s\n" (Qdt.checker_name checker)
      (Qdt.Verify.Equiv.verdict_to_string verdict);
    match verdict with
    | Qdt.Verify.Equiv.Not_equivalent -> exit 1
    | Qdt.Verify.Equiv.Equivalent | Qdt.Verify.Equiv.Inconclusive -> ()
  in
  let checker =
    let all = List.map (fun m -> (Qdt.checker_name m, m)) Qdt.all_checkers in
    Arg.(value & opt (enum all) Qdt.Check_dd & info [ "method"; "m" ] ~docv:"METHOD"
           ~doc:"Equivalence checking method: arrays, dd, dd-alternating, zx or simulation.")
  in
  let term =
    Term.(const run
          $ file_pos ~doc:"First OpenQASM file" 0
          $ file_pos ~doc:"Second OpenQASM file" 1
          $ checker $ trace_arg $ trace_format_arg $ metrics_arg)
  in
  Cmd.v (Cmd.info "verify" ~doc:"Check two circuits for equivalence") term

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let run family n seed output =
    let circuit =
      match family with
      | "bell" -> Generators.bell
      | "ghz" -> Generators.ghz n
      | "w" -> Generators.w_state n
      | "qft" -> Generators.qft n
      | "grover" -> Generators.grover ~marked:(max 0 (min ((1 lsl n) - 1) 1)) n
      | "bv" -> Generators.bernstein_vazirani ~secret:((1 lsl n) - 1) n
      | "adder" -> Generators.cuccaro_adder n
      | "random" -> Generators.random_circuit ~seed ~depth:n 4
      | "clifford" -> Generators.random_clifford ~seed ~gates:(10 * n) n
      | "clifford-t" -> Generators.random_clifford_t ~seed ~gates:(10 * n) ~t_fraction:0.25 n
      | "teleport" -> Generators.teleportation ()
      | "rus" -> Generators.repeat_until_success ~rounds:(max 1 n) ()
      | "repetition" -> Generators.repetition_code ~cycles:(max 1 n) ()
      | other -> failwith (Printf.sprintf "unknown family %S" other)
    in
    let text = Qasm.to_string circuit in
    match output with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc
  in
  let family =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY"
           ~doc:"bell, ghz, w, qft, grover, bv, adder, random, clifford, clifford-t, \
                 teleport, rus, repetition")
  in
  let n = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Size parameter.") in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"RNG seed.") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let term = Term.(const run $ family $ n $ seed $ output) in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a standard benchmark circuit as OpenQASM") term

(* ------------------------------------------------------------------ *)
(* export                                                              *)
(* ------------------------------------------------------------------ *)

let export_cmd =
  let run c format output =
    let text =
      match format with
      | `Dd ->
          let st = Qdt.Dd.Sim.run_unitary c in
          Qdt.Dd.Export.to_dot (Qdt.Dd.Sim.manager st) (Qdt.Dd.Sim.root st)
      | `Zx -> Qdt.Zx.Diagram.to_dot (Qdt.Zx.Translate.of_circuit c)
      | `Zx_reduced ->
          let d = Qdt.Zx.Translate.of_circuit c in
          ignore (Qdt.Zx.Simplify.full_reduce d);
          Qdt.Zx.Diagram.to_dot d
    in
    match output with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc
  in
  let format =
    Arg.(value & opt (enum [ ("dd", `Dd); ("zx", `Zx); ("zx-reduced", `Zx_reduced) ]) `Dd
         & info [ "format"; "f" ] ~docv:"FORMAT"
             ~doc:"dd (state decision diagram), zx, or zx-reduced.")
  in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let term = Term.(const run $ file_pos ~doc:"OpenQASM file" 0 $ format $ output) in
  Cmd.v (Cmd.info "export" ~doc:"Export the circuit's DD or ZX-diagram as Graphviz DOT") term

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

let optimize_cmd =
  let run c method_ output =
    let optimized =
      match method_ with
      | `Peephole -> fst (Qdt.Compile.Optimize.optimize c)
      | `Zx -> Qdt.Zx.Extract.optimize_circuit c
      | `Phase_poly -> Qdt.Compile.Phase_poly.optimize_blocks c
    in
    Printf.printf "gates: %d -> %d   depth: %d -> %d   non-clifford: %d -> %d\n"
      (Circuit.count_total c)
      (Circuit.count_total optimized)
      (Circuit.depth c) (Circuit.depth optimized)
      (Qdt.Compile.Optimize.non_clifford_count c)
      (Qdt.Compile.Optimize.non_clifford_count optimized);
    let text = Qasm.to_string optimized in
    match output with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Printf.printf "wrote %s\n" path
  in
  let method_ =
    Arg.(value
         & opt (enum [ ("peephole", `Peephole); ("zx", `Zx); ("phase-poly", `Phase_poly) ]) `Peephole
         & info [ "method"; "m" ] ~docv:"METHOD"
             ~doc:"Optimization method: peephole, zx (reduce + extract) or phase-poly.")
  in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let term = Term.(const run $ file_pos ~doc:"OpenQASM file to optimize" 0 $ method_ $ output) in
  Cmd.v (Cmd.info "optimize" ~doc:"Optimize a circuit (peephole, ZX pipeline, or phase polynomial)") term

(* ------------------------------------------------------------------ *)
(* serve / loadgen                                                     *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run host port workers queue_depth timeout_ms max_sessions access_log
      trace trace_format metrics =
    with_obs ~trace ~trace_format ~metrics @@ fun () ->
    let cfg =
      {
        Qdt_serve.Server.host;
        port;
        workers;
        queue_depth;
        default_timeout_ms = timeout_ms;
        max_sessions;
        access_log;
      }
    in
    match Qdt_serve.Server.run cfg with
    | () -> ()
    | exception Invalid_argument msg ->
        Printf.eprintf "qdt serve: %s\n" msg;
        exit 1
    | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "qdt serve: cannot listen on %s:%d: %s\n" host port
          (Unix.error_message err);
        exit 1
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Address to bind.")
  in
  let port =
    Arg.(value & opt int 8177 & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"Port to bind (0 picks an ephemeral port).")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing jobs.")
  in
  let queue_depth =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Queued jobs (at least 1) beyond which submissions get 429 + \
                 Retry-After.")
  in
  let timeout_ms =
    Arg.(value & opt int 30_000 & info [ "timeout-ms" ] ~docv:"MS"
           ~doc:"Default per-job wall-clock budget, 1 to 86400000 (one day) \
                 (overridable per job).")
  in
  let max_sessions =
    Arg.(value & opt int 32 & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Warm sessions kept open (LRU eviction past this).")
  in
  let access_log =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one JSON line per request to $(docv).")
  in
  let term =
    Term.(const run $ host $ port $ workers $ queue_depth $ timeout_ms
          $ max_sessions $ access_log $ trace_arg $ trace_format_arg
          $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve OpenQASM jobs over HTTP/JSONL with warm per-client \
             sessions and a Prometheus /metrics endpoint")
    term

let loadgen_cmd =
  let run host port clients jobs backend no_session seed =
    let s =
      Qdt_serve.Loadgen.run ~host ~port ~backend ~use_sessions:(not no_session)
        ~seed ~clients ~jobs_per_client:jobs ()
    in
    print_endline (Qdt_serve.Loadgen.pp_summary s);
    if s.Qdt_serve.Loadgen.failed > 0 then exit 1
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
           ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int 8177 & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"Server port.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client connections.")
  in
  let jobs =
    Arg.(value & opt int 25 & info [ "jobs" ] ~docv:"N"
           ~doc:"Jobs per client (mixed sample / expectation / amplitude).")
  in
  let no_session =
    Arg.(value & flag & info [ "no-session" ]
           ~doc:"Skip warm sessions: every job pays a cold engine \
                 create/close on the server.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base RNG seed.") in
  let term =
    Term.(const run $ host $ port $ clients $ jobs $ backend_arg $ no_session
          $ seed)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running qdt serve with N concurrent clients and report \
             jobs/sec and p50/p99 latency")
    term

let main =
  let doc = "quantum design tools: arrays, decision diagrams, tensor networks, ZX-calculus" in
  Cmd.group (Cmd.info "qdt" ~version:"1.0.0" ~doc)
    [ show_cmd; simulate_cmd; run_cmd; report_cmd; profile_cmd; backends_cmd; compile_cmd;
      verify_cmd; gen_cmd; export_cmd; optimize_cmd; serve_cmd; loadgen_cmd ]

let () = exit (Cmd.eval main)
