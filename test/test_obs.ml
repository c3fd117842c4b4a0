(* Tests for the observability library (Qdt_obs): clock monotonicity,
   metrics (counter reset, histogram bucket geometry and overflow,
   snapshot diff), trace (balanced span nesting, exception safety, ring
   wrap-around), and JSON validity of both trace exporters for a Bell
   run on every registered backend — checked with a self-contained
   recursive-descent JSON parser, since the repo deliberately carries no
   JSON dependency. *)

module Clock = Qdt_obs.Clock
module Metrics = Qdt_obs.Metrics
module Trace = Qdt_obs.Trace
module Generators = Qdt_circuit.Generators

(* ------------------------------------------------------------------ *)
(* A minimal JSON validity checker                                      *)
(* ------------------------------------------------------------------ *)

let validate_json ~what s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "%s: invalid JSON at offset %d: %s" what !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let keyword k =
    if !pos + String.length k <= n && String.sub s !pos (String.length k) = k then
      pos := !pos + String.length k
    else fail (Printf.sprintf "expected %s" k)
  in
  let digits () =
    let start = !pos in
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected digits"
  in
  let number () =
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ())
  in
  let string_lit () =
    expect '"';
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          closed := true
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some _ -> advance ()
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> keyword "true"
    | Some 'f' -> keyword "false"
    | Some 'n' -> keyword "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let continue_ = ref true in
      while !continue_ do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
            advance ();
            continue_ := false
        | _ -> fail "expected , or }"
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let continue_ = ref true in
      while !continue_ do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' ->
            advance ();
            continue_ := false
        | _ -> fail "expected , or ]"
      done
    end
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Every test leaves both subsystems disabled and the registry zeroed. *)
let isolated f () =
  Metrics.set_enabled true;
  Metrics.reset ();
  Trace.configure ();
  Trace.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.set_enabled false;
      Trace.clear ())
    f

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went backwards: %d < %d" t !prev;
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  (* bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i; last = overflow *)
  Alcotest.(check int) "v=0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "v<0" 0 (Metrics.bucket_of (-17));
  Alcotest.(check int) "v=1" 1 (Metrics.bucket_of 1);
  Alcotest.(check int) "v=2" 2 (Metrics.bucket_of 2);
  Alcotest.(check int) "v=3" 2 (Metrics.bucket_of 3);
  Alcotest.(check int) "v=4" 3 (Metrics.bucket_of 4);
  for i = 1 to Metrics.num_buckets - 2 do
    let lo = 1 lsl (i - 1) in
    Alcotest.(check int) (Printf.sprintf "lower edge 2^%d" (i - 1)) i (Metrics.bucket_of lo);
    if i < Metrics.num_buckets - 2 then
      Alcotest.(check int)
        (Printf.sprintf "upper edge 2^%d - 1" i)
        i
        (Metrics.bucket_of ((2 * lo) - 1))
  done;
  Alcotest.(check int) "overflow" (Metrics.num_buckets - 1) (Metrics.bucket_of max_int)

let test_histogram_observe =
  isolated @@ fun () ->
  let h = Metrics.histogram "test.h" in
  List.iter (Metrics.observe h) [ 1; 3; 3; 100 ];
  match List.assoc "test.h" (Metrics.snapshot ()) with
  | Metrics.Histogram_v { count; sum; max_value; buckets } ->
      Alcotest.(check int) "count" 4 count;
      Alcotest.(check int) "sum" 107 sum;
      Alcotest.(check int) "max" 100 max_value;
      Alcotest.(check int) "bucket of 1" 1 buckets.(Metrics.bucket_of 1);
      Alcotest.(check int) "bucket of 3" 2 buckets.(Metrics.bucket_of 3);
      Alcotest.(check int) "bucket of 100" 1 buckets.(Metrics.bucket_of 100);
      Alcotest.(check int) "total bucketed" 4 (Array.fold_left ( + ) 0 buckets)
  | _ -> Alcotest.fail "test.h is not a histogram"

let test_counter_reset =
  isolated @@ fun () ->
  let c = Metrics.counter "test.c" in
  Metrics.incr c;
  Metrics.add c 41;
  (match List.assoc "test.c" (Metrics.snapshot ()) with
  | Metrics.Counter_v v -> Alcotest.(check int) "counted" 42 v
  | _ -> Alcotest.fail "test.c is not a counter");
  Metrics.reset ();
  (match List.assoc "test.c" (Metrics.snapshot ()) with
  | Metrics.Counter_v v -> Alcotest.(check int) "reset to zero" 0 v
  | _ -> Alcotest.fail "test.c lost by reset");
  (* disabled recording is a no-op *)
  Metrics.set_enabled false;
  Metrics.incr c;
  Metrics.set_enabled true;
  match List.assoc "test.c" (Metrics.snapshot ()) with
  | Metrics.Counter_v v -> Alcotest.(check int) "no-op while disabled" 0 v
  | _ -> Alcotest.fail "test.c vanished"

let test_remove =
  isolated @@ fun () ->
  let c = Metrics.counter "test.keep" in
  let probe = Metrics.counter "test.probe" in
  Metrics.incr c;
  Metrics.incr probe;
  Metrics.remove "test.probe";
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "removed name gone" true
    (List.assoc_opt "test.probe" snap = None);
  (match List.assoc_opt "test.keep" snap with
  | Some (Metrics.Counter_v v) -> Alcotest.(check int) "others untouched" 1 v
  | _ -> Alcotest.fail "test.keep lost");
  (* the detached handle stays usable but invisible... *)
  Metrics.incr probe;
  Alcotest.(check bool) "detached increments invisible" true
    (List.assoc_opt "test.probe" (Metrics.snapshot ()) = None);
  (* ...and re-requesting the name registers a fresh instrument *)
  Metrics.incr (Metrics.counter "test.probe");
  match List.assoc_opt "test.probe" (Metrics.snapshot ()) with
  | Some (Metrics.Counter_v v) -> Alcotest.(check int) "fresh registration" 1 v
  | _ -> Alcotest.fail "name cannot be reused after remove"

let test_sorted_rendering =
  isolated @@ fun () ->
  (* register deliberately out of order *)
  List.iter (fun n -> Metrics.incr (Metrics.counter n)) [ "z.last"; "a.first"; "m.mid" ];
  Metrics.set (Metrics.gauge "b.gauge") 1.5;
  let snap = Metrics.snapshot () in
  let json = Metrics.to_json snap in
  validate_json ~what:"sorted metrics json" json;
  (* keys appear in sorted order in the serialised text too *)
  let offset k =
    let needle = "\"" ^ k ^ "\"" in
    let rec find i =
      if i + String.length needle > String.length json then
        Alcotest.failf "key %s missing from json" k
      else if String.sub json i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check bool) "json key order deterministic" true
    (offset "a.first" < offset "b.gauge"
    && offset "b.gauge" < offset "m.mid"
    && offset "m.mid" < offset "z.last")

let test_diff =
  isolated @@ fun () ->
  let c = Metrics.counter "test.d" in
  let g = Metrics.gauge "test.g" in
  Metrics.add c 10;
  Metrics.set g 5.0;
  let before = Metrics.snapshot () in
  Metrics.add c 7;
  Metrics.set g 2.0;
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  (match List.assoc "test.d" d with
  | Metrics.Counter_v v -> Alcotest.(check int) "counter delta" 7 v
  | _ -> Alcotest.fail "diff lost counter");
  match List.assoc "test.g" d with
  | Metrics.Gauge_v v -> Alcotest.(check (float 1e-9)) "gauge keeps after" 2.0 v
  | _ -> Alcotest.fail "diff lost gauge"

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

(* Replay the event list against a stack: every End must match the
   innermost open Begin, and nothing may stay open. *)
let check_balanced events =
  let stack = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.phase with
      | Trace.Begin -> stack := e.Trace.name :: !stack
      | Trace.End -> (
          match !stack with
          | top :: rest ->
              Alcotest.(check string) "end matches innermost begin" top e.Trace.name;
              stack := rest
          | [] -> Alcotest.failf "end %s without begin" e.Trace.name))
    events;
  Alcotest.(check (list string)) "all spans closed" [] !stack

let test_span_nesting =
  isolated @@ fun () ->
  Trace.set_enabled true;
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.with_span "inner2" (fun () -> ()));
  (try Trace.with_span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let events = Trace.events () in
  Alcotest.(check int) "8 events" 8 (List.length events);
  check_balanced events;
  Alcotest.(check int) "depth back to 0" 0 (Trace.depth ());
  let ts = List.map (fun (e : Trace.event) -> e.Trace.ts_ns) events in
  Alcotest.(check bool) "timestamps ordered" true (List.sort compare ts = ts)

let test_ring_wrap =
  isolated @@ fun () ->
  Trace.configure ~capacity:4 ();
  Trace.set_enabled true;
  for i = 1 to 5 do
    Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let events = Trace.events () in
  Alcotest.(check int) "ring holds capacity" 4 (List.length events);
  Alcotest.(check int) "drops counted" 6 (Trace.dropped_events ());
  (* the survivors are the newest events *)
  match List.rev events with
  | last :: _ -> Alcotest.(check string) "newest survives" "s5" last.Trace.name
  | [] -> Alcotest.fail "empty ring"

(* After a ring wrap the Chrome export's metadata must carry the drop
   count, so a consumer can detect truncation from the file alone. *)
let test_chrome_drop_metadata =
  isolated @@ fun () ->
  Trace.configure ~capacity:4 ();
  Trace.set_enabled true;
  for i = 1 to 5 do
    Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Trace.set_enabled false;
  Alcotest.(check int) "drops happened" 6 (Trace.dropped_events ());
  let path = Filename.temp_file "qdt_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export_chrome path;
      let src = read_file path in
      validate_json ~what:"wrapped chrome trace" src;
      match Qdt_obs.Json.parse src with
      | Error e -> Alcotest.failf "chrome export does not parse: %s" e
      | Ok j -> (
          match Qdt_obs.Json.member "metadata" j with
          | None -> Alcotest.fail "no top-level metadata object"
          | Some meta ->
              (match
                 Option.bind (Qdt_obs.Json.member "dropped_events" meta)
                   Qdt_obs.Json.to_number
               with
              | Some d -> Alcotest.(check (float 0.0)) "dropped_events recorded" 6.0 d
              | None -> Alcotest.fail "metadata lacks dropped_events");
              (match
                 Option.bind (Qdt_obs.Json.member "recorded_events" meta)
                   Qdt_obs.Json.to_number
               with
              | Some r -> Alcotest.(check (float 0.0)) "recorded_events recorded" 4.0 r
              | None -> Alcotest.fail "metadata lacks recorded_events")))

(* Same contract for the JSONL exporter: its leading metadata line must
   carry the drop count (PR 5 added it to the Chrome export only). *)
let test_jsonl_drop_metadata =
  isolated @@ fun () ->
  Trace.configure ~capacity:4 ();
  Trace.set_enabled true;
  for i = 1 to 5 do
    Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Trace.set_enabled false;
  let path = Filename.temp_file "qdt_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.export_jsonl path;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "metadata + events" 5 (List.length lines);
      List.iter (fun l -> validate_json ~what:"jsonl line" l) lines;
      match lines with
      | first :: _ -> (
          match Qdt_obs.Json.parse first with
          | Error e -> Alcotest.failf "metadata line does not parse: %s" e
          | Ok j -> (
              match Qdt_obs.Json.member "metadata" j with
              | None -> Alcotest.fail "first line lacks metadata object"
              | Some meta ->
                  let num name =
                    Option.bind (Qdt_obs.Json.member name meta) Qdt_obs.Json.to_number
                  in
                  Alcotest.(check (option (float 0.0))) "dropped_events" (Some 6.0)
                    (num "dropped_events");
                  Alcotest.(check (option (float 0.0))) "recorded_events" (Some 4.0)
                    (num "recorded_events")))
      | [] -> Alcotest.fail "empty jsonl export")

(* ------------------------------------------------------------------ *)
(* Labeled metrics                                                      *)
(* ------------------------------------------------------------------ *)

let test_labeled_registration =
  isolated @@ fun () ->
  (* label order does not matter: both spellings resolve to one series *)
  let a = Metrics.counter_with ~labels:[ ("b", "2"); ("a", "1") ] "test.lab" in
  let b = Metrics.counter_with ~labels:[ ("a", "1"); ("b", "2") ] "test.lab" in
  Metrics.incr a;
  Metrics.incr b;
  let key = Metrics.encode_series "test.lab" [ ("b", "2"); ("a", "1") ] in
  Alcotest.(check string) "canonical key" "test.lab{a=\"1\",b=\"2\"}" key;
  (match List.assoc_opt key (Metrics.snapshot ()) with
  | Some (Metrics.Counter_v v) -> Alcotest.(check int) "one shared cell" 2 v
  | _ -> Alcotest.fail "labeled series missing from snapshot");
  (* distinct label values are distinct series; base name may coexist *)
  Metrics.incr (Metrics.counter_with ~labels:[ ("a", "other") ] "test.lab");
  Metrics.incr (Metrics.counter "test.lab");
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "other series separate" true
    (List.assoc_opt "test.lab{a=\"other\"}" snap = Some (Metrics.Counter_v 1));
  Alcotest.(check bool) "unlabeled separate" true
    (List.assoc_opt "test.lab" snap = Some (Metrics.Counter_v 1));
  (* malformed / duplicate label names are rejected *)
  (try
     ignore (Metrics.counter_with ~labels:[ ("bad name", "v") ] "test.lab");
     Alcotest.fail "invalid label name accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Metrics.counter_with ~labels:[ ("a", "1"); ("a", "2") ] "test.lab");
     Alcotest.fail "duplicate label name accepted"
   with Invalid_argument _ -> ());
  (* kind mismatch on the same series key is rejected *)
  try
    ignore (Metrics.gauge_with ~labels:[ ("a", "1"); ("b", "2") ] "test.lab");
    Alcotest.fail "kind mismatch accepted"
  with Invalid_argument _ -> ()

(* Two raw domains hammering one labeled cell: increments never lost
   (the labeled path shares the Atomic-cell domain-safety of PR 7). *)
let test_labeled_merge_domains =
  isolated @@ fun () ->
  let c = Metrics.counter_with ~labels:[ ("backend", "dd") ] "test.merge" in
  let n = 50_000 in
  let worker () =
    for _ = 1 to n do
      Metrics.incr c
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  worker ();
  Domain.join d1;
  Domain.join d2;
  match
    List.assoc_opt
      (Metrics.encode_series "test.merge" [ ("backend", "dd") ])
      (Metrics.snapshot ())
  with
  | Some (Metrics.Counter_v v) -> Alcotest.(check int) "no lost updates" (3 * n) v
  | _ -> Alcotest.fail "merged series missing"

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                                *)
(* ------------------------------------------------------------------ *)

(* Line-level grammar check: every non-empty line is either a comment or
   [name(\{labels\})? value] with a legal metric name. *)
let check_prometheus_grammar ~what text =
  let name_ok s =
    s <> ""
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         s
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line = "" then ()
         else if String.length line >= 2 && String.sub line 0 2 = "# " then begin
           match String.split_on_char ' ' line with
           | "#" :: "TYPE" :: name :: [ kind ] ->
               if not (name_ok name) then
                 Alcotest.failf "%s: bad TYPE name %S" what name;
               if not (List.mem kind [ "counter"; "gauge"; "histogram"; "untyped" ])
               then Alcotest.failf "%s: bad TYPE kind %S" what kind
           | _ -> Alcotest.failf "%s: malformed comment %S" what line
         end
         else begin
           let metric, rest =
             match String.index_opt line '{' with
             | Some i -> (
                 match String.index_opt line '}' with
                 | Some j when j > i ->
                     ( String.sub line 0 i,
                       String.trim (String.sub line (j + 1) (String.length line - j - 1)) )
                 | _ -> Alcotest.failf "%s: unbalanced braces in %S" what line)
             | None -> (
                 match String.index_opt line ' ' with
                 | Some i ->
                     ( String.sub line 0 i,
                       String.trim (String.sub line i (String.length line - i)) )
                 | None -> Alcotest.failf "%s: no value in %S" what line)
           in
           if not (name_ok metric) then
             Alcotest.failf "%s: bad metric name %S in %S" what metric line;
           if rest = "" || float_of_string_opt rest = None then
             Alcotest.failf "%s: bad sample value %S in %S" what rest line
         end)

let test_render_prometheus =
  isolated @@ fun () ->
  Metrics.incr (Metrics.counter_with ~labels:[ ("backend", "dd") ] "test.prom.runs");
  Metrics.add (Metrics.counter_with ~labels:[ ("backend", "mps") ] "test.prom.runs") 3;
  Metrics.set (Metrics.gauge "test.prom-gauge") 2.5;
  let h = Metrics.histogram "test.prom.lat" in
  List.iter (Metrics.observe h) [ 1; 3; 3; 100 ];
  let out = Metrics.render_prometheus (Metrics.snapshot ()) in
  check_prometheus_grammar ~what:"render_prometheus" out;
  let has needle =
    let nl = String.length needle and n = String.length out in
    let rec go i = i + nl <= n && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  let expect needle =
    if not (has needle) then
      Alcotest.failf "missing %S in rendering:\n%s" needle out
  in
  (* dots sanitised, labels preserved, families typed *)
  expect "# TYPE test_prom_runs counter";
  expect "test_prom_runs{backend=\"dd\"} 1";
  expect "test_prom_runs{backend=\"mps\"} 3";
  expect "# TYPE test_prom_gauge gauge";
  expect "test_prom_gauge 2.5";
  expect "# TYPE test_prom_lat histogram";
  (* buckets are cumulative with closed integer upper bounds *)
  expect "test_prom_lat_bucket{le=\"1\"} 1";
  expect "test_prom_lat_bucket{le=\"3\"} 3";
  expect "test_prom_lat_bucket{le=\"+Inf\"} 4";
  expect "test_prom_lat_sum 107";
  expect "test_prom_lat_count 4"

(* Mid-circuit measurement goes through Sim.run (the CLI's final-state
   path strips measures), so drive it directly and check the span mix. *)
let test_measure_span =
  isolated @@ fun () ->
  Trace.set_enabled true;
  let c = Qdt_circuit.Circuit.measure_all Generators.bell in
  let _ = Qdt_dd.Sim.run ~seed:7 c in
  let events = Trace.events () in
  check_balanced events;
  let names =
    List.sort_uniq compare
      (List.map (fun (e : Trace.event) -> e.Trace.name) events)
  in
  Alcotest.(check bool) "gate span present" true (List.mem "dd.gate" names);
  Alcotest.(check bool) "measure span present" true (List.mem "dd.measure" names)

(* ------------------------------------------------------------------ *)
(* Exporters: Bell circuit on every registered backend                  *)
(* ------------------------------------------------------------------ *)

let test_exporters_every_backend =
  isolated @@ fun () ->
  let bell = Generators.bell in
  List.iter
    (fun ((module S : Qdt.Backend.SESSION) as engine) ->
      Trace.configure ();
      Trace.set_enabled true;
      (* Exercise whatever Bell operations the backend offers (e.g. the
         tensor-network backend computes quantities but cannot sample). *)
      let ran = ref 0 in
      List.iter
        (fun job ->
          match Qdt.Backend.run_once engine bell job with
          | Ok _ -> incr ran
          | Error _ -> ())
        [
          Qdt.Job.Sample { seed = 0; shots = 20 };
          Qdt.Job.Full_state;
          Qdt.Job.Expectation_z { seed = 0; qubit = 0 };
        ];
      if !ran = 0 then Alcotest.failf "backend %s ran no Bell operation" S.name;
      Trace.set_enabled false;
      if Trace.events () = [] then Alcotest.failf "backend %s recorded no spans" S.name;
      check_balanced (Trace.events ());
      let chrome = Filename.temp_file "qdt_trace" ".json" in
      let jsonl = Filename.temp_file "qdt_trace" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove chrome;
          Sys.remove jsonl)
        (fun () ->
          Trace.export_chrome chrome;
          Trace.export_jsonl jsonl;
          validate_json ~what:(S.name ^ " chrome trace") (read_file chrome);
          String.split_on_char '\n' (read_file jsonl)
          |> List.iter (fun line ->
                 if String.trim line <> "" then
                   validate_json ~what:(S.name ^ " jsonl line") line));
      Trace.clear ())
    (Qdt.Registry.all ());
  (* the metrics JSON dump is valid too *)
  validate_json ~what:"metrics json" (Metrics.to_json (Metrics.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition parser (Qdt_prom.Prom)                        *)
(* ------------------------------------------------------------------ *)

module Prom = Qdt_prom.Prom

let test_prom_roundtrip =
  isolated @@ fun () ->
  let c = Metrics.counter_with ~labels:[ ("backend", "d\"d\n") ] "test.promrt.runs" in
  Metrics.add c 5;
  Metrics.set (Metrics.gauge "test.promrt.depth") 3.5;
  let h = Metrics.histogram "test.promrt.lat" in
  List.iter (Metrics.observe h) [ 1; 5; 900 ];
  let text = Metrics.render_prometheus (Metrics.snapshot ()) in
  (match Prom.parse text with
  | Error e -> Alcotest.failf "renderer output rejected: %s" e
  | Ok fams ->
      (match Prom.find "test_promrt_runs" fams with
      | None -> Alcotest.fail "counter family missing"
      | Some f ->
          Alcotest.(check string) "kind" "counter" f.Prom.kind;
          Alcotest.(check (float 0.0)) "value" 5.0 (Prom.total f);
          (match f.Prom.samples with
          | [ s ] ->
              (* The escaped label value round-trips through the parser. *)
              Alcotest.(check (list (pair string string)))
                "labels" [ ("backend", "d\"d\n") ] s.Prom.labels
          | _ -> Alcotest.fail "expected one counter sample"));
      (match Prom.find "test_promrt_lat" fams with
      | None -> Alcotest.fail "histogram family missing"
      | Some f ->
          Alcotest.(check string) "kind" "histogram" f.Prom.kind;
          Alcotest.(check (float 0.0)) "count" 3.0 (Prom.total f));
      match Prom.find "test_promrt_depth" fams with
      | Some { Prom.kind = "gauge"; _ } -> ()
      | _ -> Alcotest.fail "gauge family missing");
  Metrics.remove "test.promrt.depth";
  Metrics.remove "test.promrt.lat";
  Metrics.remove (Metrics.encode_series "test.promrt.runs" [ ("backend", "d\"d\n") ])

let test_prom_rejects =
  isolated @@ fun () ->
  let reject what text =
    match Prom.parse text with
    | Ok _ -> Alcotest.failf "%s should be rejected" what
    | Error e ->
        if not (String.length e > 5 && String.sub e 0 5 = "line ") then
          Alcotest.failf "%s: error %S does not name a line" what e
  in
  reject "sample before TYPE" "foo 1\n";
  reject "sample outside family" "# TYPE a counter\nb 1\n";
  reject "bad value" "# TYPE a counter\na one\n";
  reject "unterminated label" "# TYPE a counter\na{x=\"y 1\n";
  reject "bad kind" "# TYPE a widget\na 1\n";
  (match Prom.parse "# TYPE up gauge\nup{job=\"qdt\"} 1 1700000000000\n" with
  | Ok [ { Prom.samples = [ { Prom.value = 1.0; _ } ]; _ } ] -> ()
  | Ok _ -> Alcotest.fail "timestamped sample parsed oddly"
  | Error e -> Alcotest.failf "timestamped sample rejected: %s" e);
  match Prom.parse "# TYPE x gauge\nx NaN\n" with
  | Ok [ { Prom.samples = [ s ]; _ } ] ->
      Alcotest.(check bool) "NaN value" true (Float.is_nan s.Prom.value)
  | Ok _ -> Alcotest.fail "NaN sample parsed oddly"
  | Error e -> Alcotest.failf "NaN rejected: %s" e

let () =
  Alcotest.run "qdt_obs"
    [
      ("clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ]);
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "counter reset" `Quick test_counter_reset;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "sorted rendering" `Quick test_sorted_rendering;
          Alcotest.test_case "snapshot diff" `Quick test_diff;
        ] );
      ( "labels",
        [
          Alcotest.test_case "labeled registration" `Quick test_labeled_registration;
          Alcotest.test_case "labeled merge across domains" `Quick
            test_labeled_merge_domains;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "exposition format" `Quick test_render_prometheus ] );
      ( "prom parser",
        [
          Alcotest.test_case "round-trip" `Quick test_prom_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_prom_rejects;
        ] );
      ( "trace",
        [
          Alcotest.test_case "balanced nesting" `Quick test_span_nesting;
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "chrome export drop metadata" `Quick test_chrome_drop_metadata;
          Alcotest.test_case "jsonl export drop metadata" `Quick test_jsonl_drop_metadata;
          Alcotest.test_case "mid-circuit measure span" `Quick test_measure_span;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "bell on every backend" `Quick test_exporters_every_backend;
        ] );
    ]
