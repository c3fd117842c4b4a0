(* All state is process-global: the registry maps names to mutable
   instruments, and the hot path touches only the instrument record it was
   handed plus the [on] flag.  Nothing here allocates while disabled.

   Domain safety (the parallel substrate records from worker domains):
   counter, gauge and peak cells are [Atomic.t], so concurrent updates
   from any number of domains never lose one and cost one atomic op when
   enabled (one load + branch when disabled, preserving the e17 bound).
   Histograms mutate several fields per observation, so [observe] — and
   every registry mutation / whole-registry read — serialises on one
   process-wide mutex instead; histogram call sites (GC pauses, SVD bond
   dims) are orders of magnitude colder than counter increments. *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Guards the registry table and every histogram's mutable fields. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

(* 48 buckets cover durations up to 2^46 ns (~20 h) before overflowing —
   ample for anything a single run observes. *)
let num_buckets = 48

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)
(* ------------------------------------------------------------------ *)

(* A labeled instrument is an ordinary instrument registered under a
   canonical encoded key [name{k="v",k2="v2"}] (labels sorted by key,
   values escaped) — so snapshots, diffs and to_json treat the
   whole series as one named cell and need no label awareness.  The key
   is the series' one record: it is already exposition syntax, so the
   Prometheus renderer recovers base and labels by splitting it.

   Cardinality is the caller's contract (DESIGN.md, "label cardinality
   rules"): label values must come from small closed sets (backend names,
   domain slots, operations) — never per-shot or per-gate values.  A hard
   cap per family backstops mistakes. *)

let valid_label_key k =
  k <> ""
  && (match k.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       k

(* Prometheus label-value escaping; also what the encoded key embeds. *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_pairs labels =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"") labels)

(* Validate, sort and dup-check a label set.  Raises Invalid_argument on
   malformed or duplicate label keys. *)
let canonical_labels base labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_key k) then
        invalid_arg
          (Printf.sprintf "Qdt_obs.Metrics: invalid label name %S on %S" k base))
    labels;
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some k ->
      invalid_arg
        (Printf.sprintf "Qdt_obs.Metrics: duplicate label %S on %S" k base)
  | None -> ());
  sorted

(* [encode_series base labels] — the canonical registry/snapshot key of a
   labeled series. *)
let encode_series base labels =
  match canonical_labels base labels with
  | [] -> base
  | sorted -> base ^ "{" ^ label_pairs sorted ^ "}"

(* Decompose a series key into (base name, rendered label pairs) by
   splitting at its first '{': the encoded form is already exposition
   syntax, so the Prometheus renderer re-emits the pairs verbatim. *)
let split_series key =
  let n = String.length key in
  match String.index_opt key '{' with
  | Some i when n > i + 1 && key.[n - 1] = '}' ->
      (String.sub key 0 i, String.sub key (i + 1) (n - i - 2))
  | _ -> (key, "")

(* base name -> number of registered series; guarded by [mu]. *)
let family_size : (string, int) Hashtbl.t = Hashtbl.create 64
let max_series_per_family = 1000

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; level : float Atomic.t }

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  buckets : int array;
}

(* A peak is a gauge cell that only [raise_to] writes. *)
type peak = gauge

type instrument = C of counter | G of gauge | H of histogram | P of peak

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

(* Called under [mu] when a series of [base] is fresh: enforce the
   per-family series cap. *)
let admit_series base =
  match Hashtbl.find_opt family_size base with
  | Some n when n >= max_series_per_family ->
      invalid_arg
        (Printf.sprintf
           "Qdt_obs.Metrics: label cardinality cap (%d series) exceeded for %S"
           max_series_per_family base)
  | Some n -> Hashtbl.replace family_size base (n + 1)
  | None -> Hashtbl.add family_size base 1

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"
  | P _ -> "peak"

(* Get-or-create the series [base{labels}]: [make] builds a fresh
   instrument, [classify] unwraps one of the kind the caller asked for. *)
let get_or_register ~base ~labels make classify =
  let key = encode_series base labels in
  locked @@ fun () ->
  let i =
    match Hashtbl.find_opt registry key with
    | Some i -> i
    | None ->
        admit_series base;
        let i = make key in
        Hashtbl.replace registry key i;
        i
  in
  match classify i with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Qdt_obs.Metrics: %S already registered as a %s" key
           (kind_name i))

let counter_with ~labels name =
  get_or_register ~base:name ~labels
    (fun key -> C { c_name = key; count = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let gauge_with ~labels name =
  get_or_register ~base:name ~labels
    (fun key -> G { g_name = key; level = Atomic.make 0.0 })
    (function G g -> Some g | _ -> None)

let histogram_with ~labels name =
  get_or_register ~base:name ~labels
    (fun key ->
      H { h_name = key; h_count = 0; h_sum = 0; h_max = 0;
          buckets = Array.make num_buckets 0 })
    (function H h -> Some h | _ -> None)

let counter name = counter_with ~labels:[] name
let gauge name = gauge_with ~labels:[] name
let histogram name = histogram_with ~labels:[] name

let peak name =
  get_or_register ~base:name ~labels:[]
    (fun key -> P { g_name = key; level = Atomic.make 0.0 })
    (function P p -> Some p | _ -> None)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let incr c = if Atomic.get on then Atomic.incr c.count
let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.count n)
let set g v = if Atomic.get on then Atomic.set g.level v

(* Bucket index = number of significant bits of v (so bucket i holds
   [2^(i-1), 2^i)), clamped into the overflow bucket. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let bits = ref 0 and x = ref v in
    while !x > 0 do
      bits := !bits + 1;
      x := !x lsr 1
    done;
    min !bits (num_buckets - 1)
  end

let remove name =
  locked @@ fun () ->
  if Hashtbl.mem registry name then begin
    Hashtbl.remove registry name;
    let base = fst (split_series name) in
    match Hashtbl.find_opt family_size base with
    | Some n when n > 1 -> Hashtbl.replace family_size base (n - 1)
    | Some _ -> Hashtbl.remove family_size base
    | None -> ()
  end

let observe h v =
  if Atomic.get on then
    locked @@ fun () ->
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1

(* CAS-max.  Compare-and-set on a boxed float is sound here because the
   expected value is the physically-identical box the preceding
   [Atomic.get] returned, so a racing lower value never lands. *)
let rec raise_cell cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_cell cell v

let raise_to p v = if Atomic.get on then raise_cell p.level v
let raise_to_int p v = if Atomic.get on then raise_cell p.level (float_of_int v)

(* Major-heap size.  Process-wide in OCaml 5 (every domain's heap), so
   it is sampled at run and scrape scope, never per job. *)
let p_heap = peak "heap.peak_heap_words"

let observe_heap () =
  if Atomic.get on then
    raise_cell p_heap.level (float_of_int (Gc.quick_stat ()).Gc.heap_words)

(* Peak resident set size.  Linux reports it as "VmHWM: <n> kB" in
   /proc/self/status; elsewhere the file is absent and the peak simply
   stays at zero (callers treat 0 as "not measured", the same convention
   Report uses to drop empty peaks). *)
let p_rss = peak "proc.peak_rss_bytes"

let observe_rss () =
  if Atomic.get on then
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> ()
    | status ->
        List.iter
          (fun line ->
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> raise_cell p_rss.level (float_of_int kb *. 1024.0)
            | None -> ())
          (String.split_on_char '\n' status)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : int; max_value : int; buckets : int array }

type snapshot = (string * value) list

let snapshot ?(with_peaks = true) () =
  locked (fun () ->
      Hashtbl.fold
        (fun name i acc ->
          match i with
          | P _ when not with_peaks -> acc
          | C c -> (name, Counter_v (Atomic.get c.count)) :: acc
          | G g | P g -> (name, Gauge_v (Atomic.get g.level)) :: acc
          | H h ->
              ( name,
                Histogram_v
                  { count = h.h_count; sum = h.h_sum; max_value = h.h_max;
                    buckets = Array.copy h.buckets } )
              :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let diff ~before ~after =
  List.filter_map
    (fun (name, v_after) ->
      match (List.assoc_opt name before, v_after) with
      | None, v -> Some (name, v)
      | Some (Counter_v b), Counter_v a -> Some (name, Counter_v (a - b))
      | Some (Gauge_v _), (Gauge_v _ as v) -> Some (name, v)
      | Some (Histogram_v b), Histogram_v a ->
          Some
            ( name,
              Histogram_v
                {
                  count = a.count - b.count;
                  sum = a.sum - b.sum;
                  max_value = a.max_value;
                  buckets = Array.mapi (fun k n -> n - b.buckets.(k)) a.buckets;
                } )
      | Some _, v ->
          (* A name that changed kind between snapshots: report as-is. *)
          Some (name, v))
    after

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ i ->
      match i with
      | C c -> Atomic.set c.count 0
      | G g | P g -> Atomic.set g.level 0.0
      | H h ->
          h.h_count <- 0;
          h.h_sum <- 0;
          h.h_max <- 0;
          Array.fill h.buckets 0 num_buckets 0)
    registry

let peaks () =
  locked (fun () ->
      Hashtbl.fold
        (fun name i acc ->
          match i with P p -> (name, Atomic.get p.level) :: acc | _ -> acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_peaks () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ i -> match i with P p -> Atomic.set p.level 0.0 | _ -> ())
    registry

(* [snapshot] already sorts, but the renderers also accept hand-assembled
   or [diff]-produced lists — sort here too so every rendering
   (BENCH_*.json, baselines) is deterministic by construction. *)
let by_name s = List.sort (fun (a, _) (b, _) -> String.compare a b) s

let to_json s =
  Json.obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter_v n -> Json.int n
           | Gauge_v g -> Json.float g
           | Histogram_v h ->
               Printf.sprintf "{\"count\": %d, \"sum\": %d, \"max\": %d, \"buckets\": [%s]}"
                 h.count h.sum h.max_value
                 (String.concat ", " (Array.to_list (Array.map string_of_int h.buckets))) ))
       (by_name s))

let render s =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n -> Buffer.add_string b (Printf.sprintf "  %-36s %d\n" name n)
      | Gauge_v g -> Buffer.add_string b (Printf.sprintf "  %-36s %g\n" name g)
      | Histogram_v h ->
          let mean = if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count in
          Buffer.add_string b
            (Printf.sprintf "  %-36s count=%d mean=%.1f max=%d\n" name h.count mean
               h.max_value))
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Metric names here use '.' and '-' which the exposition grammar
   forbids (names must match "[a-zA-Z_:][a-zA-Z0-9_:]" repeated) — map
   everything else to '_'. *)
let sanitize_metric_name s =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      s
  in
  if mapped = "" then "_"
  else match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

let prom_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let render_prometheus s =
  let s = by_name s in
  let b = Buffer.create 1024 in
  (* Group series into families so each family's samples are contiguous
     with a single TYPE line (the grammar requires grouping even though
     the sorted snapshot mostly provides it already). *)
  let order = ref [] in
  let families : (string, (string * value) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (key, v) ->
      let base, lbl = split_series key in
      match Hashtbl.find_opt families base with
      | Some r -> r := (lbl, v) :: !r
      | None ->
          Hashtbl.add families base (ref [ (lbl, v) ]);
          order := base :: !order)
    s;
  let line metric lbl value =
    if lbl = "" then Buffer.add_string b (Printf.sprintf "%s %s\n" metric value)
    else Buffer.add_string b (Printf.sprintf "%s{%s} %s\n" metric lbl value)
  in
  List.iter
    (fun base ->
      let entries = List.rev !(Hashtbl.find families base) in
      let name = sanitize_metric_name base in
      let kind =
        match entries with
        | (_, Counter_v _) :: _ -> "counter"
        | (_, Gauge_v _) :: _ -> "gauge"
        | (_, Histogram_v _) :: _ -> "histogram"
        | [] -> "untyped"
      in
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind);
      List.iter
        (fun (lbl, v) ->
          match v with
          | Counter_v n -> line name lbl (string_of_int n)
          | Gauge_v g -> line name lbl (prom_float g)
          | Histogram_v h ->
              (* Bucket i holds values in [2^(i-1), 2^i), i.e. integer
                 observations <= 2^i - 1 — so le = 2^i - 1 (le = 0 for
                 bucket 0).  The overflow bucket folds into +Inf. *)
              let last = ref 0 in
              Array.iteri (fun i n -> if n > 0 then last := i) h.buckets;
              let last = min !last (num_buckets - 2) in
              let cum = ref 0 in
              for i = 0 to last do
                cum := !cum + h.buckets.(i);
                let le = if i = 0 then "0" else string_of_int ((1 lsl i) - 1) in
                let ll =
                  if lbl = "" then Printf.sprintf "le=\"%s\"" le
                  else Printf.sprintf "%s,le=\"%s\"" lbl le
                in
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket{%s} %d\n" name ll !cum)
              done;
              let ll = if lbl = "" then "le=\"+Inf\"" else lbl ^ ",le=\"+Inf\"" in
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{%s} %d\n" name ll h.count);
              line (name ^ "_sum") lbl (string_of_int h.sum);
              line (name ^ "_count") lbl (string_of_int h.count))
        entries)
    (List.rev !order);
  Buffer.contents b
