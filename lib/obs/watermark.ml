(* Process-global running-max cells — "how high did resource X get this
   run?".  Same shape as Metrics: instruments are created once and held
   in a binding, recording starts with one load of the enabled flag and
   allocates nothing while disabled.

   Domain safety: each watermark is a [float Atomic.t] raised by a
   CAS-max loop, so concurrent observations from worker domains never
   lose a peak.  The compare-and-set on a boxed float is sound here
   because the expected value is the physically-identical box returned
   by the preceding [Atomic.get]. *)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Guards the registry table only — observations never take it. *)
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

type t = { w_name : string; cell : float Atomic.t }

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let watermark name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some w -> w
  | None ->
      let w = { w_name = name; cell = Atomic.make 0.0 } in
      Hashtbl.replace registry name w;
      w

let name w = w.w_name

let rec raise_to cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then raise_to cell v

let observe w v = if Atomic.get on then raise_to w.cell v
let observe_int w v = if Atomic.get on then raise_to w.cell (float_of_int v)
let peak w = Atomic.get w.cell

let snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun name w acc -> (name, Atomic.get w.cell) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  locked @@ fun () -> Hashtbl.iter (fun _ w -> Atomic.set w.cell 0.0) registry

(* Major-heap size.  Process-wide in OCaml 5 (every domain's heap), so
   it is sampled at run and scrape scope, never per job. *)
let w_heap = watermark "heap.peak_heap_words"

let observe_heap () =
  if Atomic.get on then raise_to w_heap.cell (float_of_int (Gc.quick_stat ()).Gc.heap_words)

(* Peak resident set size.  Linux reports it as "VmHWM: <n> kB" in
   /proc/self/status; elsewhere the file is absent and the watermark
   simply stays at zero (callers treat 0 as "not measured", the same
   convention Report uses to drop empty watermarks). *)
let w_rss = watermark "proc.peak_rss_bytes"

let observe_rss () =
  if Atomic.get on then
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> ()
    | ic ->
        let prefix = "VmHWM:" in
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> ()
          | line ->
              if
                String.length line > String.length prefix
                && String.sub line 0 (String.length prefix) = prefix
              then
                let digits =
                  String.to_seq line
                  |> Seq.filter (fun c -> c >= '0' && c <= '9')
                  |> String.of_seq
                in
                match int_of_string_opt digits with
                | Some kb -> raise_to w_rss.cell (float_of_int kb *. 1024.0)
                | None -> ()
              else scan ()
        in
        scan ();
        close_in ic
