(* One run, one self-contained JSON artifact.

   [start] brackets a simulation: it turns the metrics switch on
   (remembering its previous state), zeroes the peaks, and snapshots the
   registry so the final artifact carries a diff scoped to this run —
   not process-lifetime totals.  [finish] assembles the artifact,
   restores the switch, and zeroes the peaks again so nothing leaks into
   the next run (the reset-semantics contract the tests pin down).

   The report layer knows nothing about circuits or backends: callers
   attach those as named raw-JSON sections ([add_section]), keeping the
   dependency arrow pointing from core to obs. *)

let schema = "qdt-report/1"

type t = {
  mutable sections : (string * string) list;  (* reverse insertion order *)
  before_metrics : Metrics.snapshot;
  g0 : Gc.stat;
  t0 : int;
  prev_enabled : bool;
  mutable finished : string option;
}

let start () =
  let prev_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset_peaks ();
  {
    sections = [];
    before_metrics = Metrics.snapshot ~with_peaks:false ();
    g0 = Gc.quick_stat ();
    t0 = Clock.now_ns ();
    prev_enabled;
    finished = None;
  }

(* [json] must be a complete JSON value; it is embedded verbatim. *)
let add_section t ~name ~json = t.sections <- (name, json) :: t.sections

let hotspots_json () =
  match Trace.events () with
  | [] -> None
  | events ->
      let p = Profile.of_events events in
      let rows = Profile.hotspots ~top:5 p in
      let row (r : Profile.row) =
        Printf.sprintf
          "{\"name\": %s, \"count\": %d, \"total_ns\": %d, \"self_ns\": %d}"
          (Json.string r.Profile.name) r.Profile.count r.Profile.total_ns
          r.Profile.self_ns
      in
      Some
        (Printf.sprintf "{\"total_ns\": %d, \"spans\": [%s]}"
           (Profile.total_ns p)
           (String.concat ", " (List.map row rows)))

let trace_tail_json ~limit =
  let events = Trace.events () in
  let n = List.length events in
  let tail =
    if n <= limit then events
    else List.filteri (fun i _ -> i >= n - limit) events
  in
  let event_json (e : Trace.event) =
    Printf.sprintf "{\"name\": %s, \"ts_ns\": %d, \"phase\": %s}"
      (Json.string e.Trace.name) e.Trace.ts_ns
      (Json.string (match e.Trace.phase with Trace.Begin -> "B" | Trace.End -> "E"))
  in
  Printf.sprintf "[%s]" (String.concat ", " (List.map event_json tail))

(* Build the artifact from the bracket's current state.  Pure with
   respect to the bracket: callable repeatedly ([snapshot]) without
   sealing it — only [finalize] records the result and restores the
   switch. *)
let assemble ?error t =
  let elapsed = Clock.elapsed_ns t.t0 in
  let g1 = Gc.quick_stat () in
  Metrics.observe_heap ();
  (* One registry, two sections: the run diff of every instrument but
     the peaks, and the nonzero peaks — no value lands in both. *)
  let metrics_diff =
    Metrics.diff ~before:t.before_metrics ~after:(Metrics.snapshot ~with_peaks:false ())
  in
  let nonzero (k, v) = if v > 0.0 then Some (k, Json.float v) else None in
  Json.obj
    ([
       ("schema", Json.string schema);
       ("created_unix_ns", Json.int (Clock.epoch_ns + t.t0 + elapsed));
       ("wall_s", Json.float (Clock.ns_to_s elapsed));
       ( "heap",
         Printf.sprintf
           "{\"minor_words\": %s, \"major_words\": %s, \"heap_words\": %d, \
            \"top_heap_words\": %d}"
           (Json.float (g1.Gc.minor_words -. t.g0.Gc.minor_words))
           (Json.float (g1.Gc.major_words -. t.g0.Gc.major_words))
           g1.Gc.heap_words g1.Gc.top_heap_words );
     ]
    @ List.rev t.sections
    @ [
        ("metrics", Metrics.to_json metrics_diff);
        ("watermarks", Json.obj (List.filter_map nonzero (Metrics.peaks ())));
      ]
    @ Option.to_list (Option.map (fun json -> ("hotspots", json)) (hotspots_json ()))
    @
    match error with
    | Some (msg, backtrace) ->
        [
          ( "error",
            Printf.sprintf "{\"message\": %s, \"backtrace\": %s}" (Json.string msg)
              (Json.string backtrace) );
          ("trace_tail", trace_tail_json ~limit:50);
        ]
    | None -> [])

let finalize ?error t =
  match t.finished with
  | Some json -> json
  | None ->
      let json = assemble ?error t in
      t.finished <- Some json;
      Metrics.set_enabled t.prev_enabled;
      Metrics.reset_peaks ();
      json

let snapshot t = match t.finished with Some json -> json | None -> assemble t
let finish t = finalize t
let crash t ~error ~backtrace = finalize ~error:(error, backtrace) t

(* Write-to-temp-then-rename: rename(2) is atomic within a filesystem,
   so a concurrent reader of [path] sees a complete document — the old
   one or the new one, never a torn write. *)
let write_file path json =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc json;
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Pretty-printing (the [qdt report] subcommand)                       *)
(* ------------------------------------------------------------------ *)

(* Raises [Failure] when [json] does not parse. *)
let render json =
  let root =
    match Json.parse json with
    | Ok v -> v
    | Error e -> failwith ("report: not valid JSON: " ^ e)
  in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let str m name = Option.bind (Json.member name m) Json.to_string in
  let num m name = Option.bind (Json.member name m) Json.to_number in
  (match str root "schema" with
  | Some s -> line "run report (%s)" s
  | None -> line "run report");
  (match num root "wall_s" with
  | Some w -> line "  wall          %.6f s" w
  | None -> ());
  (match Json.member "heap" root with
  | Some h ->
      let f name = Option.value ~default:0.0 (num h name) in
      line "  heap          minor=%.3fMw major=%.3fMw top=%.3fMw"
        (f "minor_words" /. 1e6) (f "major_words" /. 1e6)
        (f "top_heap_words" /. 1e6)
  | None -> ());
  (match Json.member "circuit" root with
  | Some c ->
      let f name = Option.value ~default:0.0 (num c name) in
      line "  circuit       qubits=%s depth=%s gates=%s two-qubit=%s t-count=%s"
        (Json.number (f "qubits")) (Json.number (f "depth")) (Json.number (f "gates"))
        (Json.number (f "two_qubit")) (Json.number (f "t_count"));
      (match Json.member "dynamic" c with
      | Some (Json.Bool d) -> line "                dynamic=%b" d
      | _ -> ())
  | None -> ());
  (match Json.member "backend" root with
  | Some bk ->
      (match str bk "name" with
      | Some n -> line "  backend       %s" n
      | None -> ());
      (match str bk "reason" with
      | Some r -> line "                %s" r
      | None -> ())
  | None -> ());
  (match Json.member "watermarks" root with
  | Some (Json.Object fields) when fields <> [] ->
      line "  watermarks";
      List.iter
        (fun (name, v) ->
          match v with
          | Json.Number x -> line "    %-34s %s" name (Json.number x)
          | _ -> ())
        fields
  | _ -> ());
  (match Json.member "metrics" root with
  | Some (Json.Object fields) when fields <> [] ->
      line "  metrics (run delta)";
      List.iter
        (fun (name, v) ->
          match v with
          | Json.Number x -> if x <> 0.0 then line "    %-34s %s" name (Json.number x)
          | Json.Object _ as h -> (
              match (Json.member "count" h, Json.member "max" h) with
              | Some (Json.Number c), Some (Json.Number m) when c <> 0.0 ->
                  line "    %-34s count=%s max=%s" name (Json.number c) (Json.number m)
              | _ -> ())
          | _ -> ())
        fields
  | _ -> ());
  (match Json.member "hotspots" root with
  | Some h -> (
      match Json.member "spans" h with
      | Some (Json.Array spans) when spans <> [] ->
          line "  hotspots (self time)";
          List.iter
            (fun s ->
              match (str s "name", num s "self_ns", num s "count") with
              | Some n, Some self, Some count ->
                  line "    %-34s %8.3f ms  x%s" n (self /. 1e6) (Json.number count)
              | _ -> ())
            spans
      | _ -> ())
  | None -> ());
  (match Json.member "error" root with
  | Some e ->
      (match str e "message" with
      | Some m -> line "  ERROR         %s" m
      | None -> ());
      (match str e "backtrace" with
      | Some bt when String.trim bt <> "" ->
          line "  backtrace:";
          String.split_on_char '\n' (String.trim bt)
          |> List.iter (fun l -> line "    %s" l)
      | _ -> ())
  | None -> ());
  Buffer.contents b
