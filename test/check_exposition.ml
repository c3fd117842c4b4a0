(* CI helper: validate a Prometheus exposition scraped from a live
   [qdt serve] (stdin or a file argument) with the in-tree parser.
   Exits nonzero unless the text parses, the serve gauges are present,
   the request counters are nonzero, and the DD and RSS peaks are
   nonzero gauges — the contract the CI smoke job enforces after
   driving decision-diagram load through the server. *)

module Prom = Qdt_prom.Prom

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let () =
  let text =
    if Array.length Sys.argv > 1 then (
      let ic = open_in_bin Sys.argv.(1) in
      let s = read_all ic in
      close_in ic;
      s)
    else read_all stdin
  in
  let fams =
    match Prom.parse text with
    | Ok fams -> fams
    | Error e -> fail "exposition does not parse: %s" e
  in
  let family name =
    match Prom.find name fams with
    | Some f -> f
    | None -> fail "family %s missing" name
  in
  let gauges = [ "qdt_serve_queue_depth"; "qdt_serve_inflight"; "qdt_serve_uptime_s" ] in
  List.iter
    (fun name ->
      let f = family name in
      if f.Prom.kind <> "gauge" then fail "%s is %s, expected gauge" name f.Prom.kind)
    gauges;
  List.iter
    (fun name ->
      let f = family name in
      if f.Prom.kind <> "gauge" then fail "%s is %s, expected gauge" name f.Prom.kind;
      if Prom.total f <= 0.0 then fail "%s is zero" name)
    [ "dd_peak_live_nodes"; "proc_peak_rss_bytes" ];
  let requests = family "qdt_serve_requests" in
  if Prom.total requests <= 0.0 then fail "qdt_serve_requests counters are all zero";
  let jobs = family "qdt_serve_jobs" in
  if
    not
      (List.exists
         (fun s -> s.Prom.labels = [ ("outcome", "ok") ] && s.Prom.value > 0.0)
         jobs.Prom.samples)
  then fail "no successful jobs counted";
  let lat = family "qdt_serve_latency_ns" in
  if lat.Prom.kind <> "histogram" then fail "qdt_serve_latency_ns is not a histogram";
  Printf.printf "ok: %d families, %.0f requests, %.0f jobs\n" (List.length fams)
    (Prom.total requests) (Prom.total jobs)
