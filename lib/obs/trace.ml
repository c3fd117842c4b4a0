(* Ring buffer of begin/end events.  Slots are mutable records allocated
   once by [configure]; recording an event mutates a slot in place, so the
   steady-state cost of an enabled span is two clock reads and a handful
   of stores.  Disabled cost is one flag check.

   The ring is single-owner: slots, head and depth are plain mutable state
   with no synchronisation, so only the domain that enabled tracing may
   record.  [emit_begin]/[emit_end]/[with_span] silently drop events from
   any other domain (worker domains of the parallel substrate) — parallel
   regions instead show up as [par.chunk] spans emitted by the calling
   domain around the whole region. *)

let on = ref false
let enabled () = !on

(* Domain id that called [set_enabled true]; -1 while disabled. *)
let owner = ref (-1)
let owned () = (Domain.self () :> int) = !owner

type phase = Begin | End

type event = { name : string; ts_ns : int; phase : phase; attrs : (string * string) list }

type slot = {
  mutable s_name : string;
  mutable s_ts : int;
  mutable s_phase : phase;
  mutable s_attrs : (string * string) list;
}

let default_capacity = 131072
let slots = ref [||]
let head = ref 0 (* next write position *)
let written = ref 0 (* events recorded since last clear (not wrapped) *)
let cur_depth = ref 0

let configure ?(capacity = default_capacity) () =
  let capacity = max 2 capacity in
  slots :=
    Array.init capacity (fun _ ->
        { s_name = ""; s_ts = 0; s_phase = Begin; s_attrs = [] });
  head := 0;
  written := 0;
  cur_depth := 0

let clear () =
  head := 0;
  written := 0;
  cur_depth := 0

let set_enabled b =
  if b && Array.length !slots = 0 then configure ();
  owner := (if b then (Domain.self () :> int) else -1);
  on := b

let capacity () = Array.length !slots

let dropped_events () = max 0 (!written - capacity ())
let depth () = !cur_depth

let record phase name attrs =
  let cap = capacity () in
  if cap > 0 then begin
    let s = !slots.(!head) in
    s.s_name <- name;
    s.s_ts <- Clock.now_ns ();
    s.s_phase <- phase;
    s.s_attrs <- attrs;
    head := (!head + 1) mod cap;
    written := !written + 1
  end

let emit_begin ?(attrs = []) name =
  if !on && owned () then begin
    record Begin name attrs;
    cur_depth := !cur_depth + 1
  end

let emit_end name =
  if !on && owned () then begin
    record End name [];
    cur_depth := max 0 (!cur_depth - 1)
  end

let with_span ?attrs name f =
  if not (!on && owned ()) then f ()
  else begin
    emit_begin ?attrs name;
    Fun.protect ~finally:(fun () -> emit_end name) f
  end

let events () =
  let cap = capacity () in
  let n = min !written cap in
  let start = if !written <= cap then 0 else !head in
  List.init n (fun k ->
      let s = !slots.((start + k) mod cap) in
      { name = s.s_name; ts_ns = s.s_ts; phase = s.s_phase; attrs = s.s_attrs })

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let phase_letter = function Begin -> "B" | End -> "E"

let args_json attrs =
  match attrs with
  | [] -> ""
  | attrs ->
      ", \"args\": " ^ Json.obj (List.map (fun (k, v) -> (k, Json.string v)) attrs)

let event_json e =
  Printf.sprintf "{\"name\": %s, \"ph\": \"%s\", \"ts\": %.3f, \"pid\": 1, \"tid\": 1%s}"
    (Json.string e.name) (phase_letter e.phase) (Clock.ns_to_us e.ts_ns)
    (args_json e.attrs)

let export_chrome path =
  let evs = events () in
  let oc = open_out path in
  (* The metadata block carries the ring's drop count so a truncated
     profile is never silently trusted: viewers ignore unknown top-level
     fields, tooling can check dropped_events = 0 before drawing
     conclusions. *)
  Printf.fprintf oc
    "{\"displayTimeUnit\": \"ns\", \"metadata\": {\"dropped_events\": %d, \
     \"recorded_events\": %d}, \"traceEvents\": [\n"
    (dropped_events ()) (List.length evs);
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      output_string oc ("  " ^ event_json e))
    evs;
  output_string oc "\n]}\n";
  close_out oc

let export_jsonl path =
  let evs = events () in
  let oc = open_out path in
  (* Same drop-count metadata as the Chrome exporter, as a leading line:
     consumers that stream the file see the truncation warning before any
     event, and line-oriented tooling can skip it by its "metadata" key. *)
  Printf.fprintf oc
    "{\"metadata\": {\"dropped_events\": %d, \"recorded_events\": %d}}\n"
    (dropped_events ()) (List.length evs);
  List.iter (fun e -> output_string oc (event_json e ^ "\n")) evs;
  close_out oc
