(* Robust sample statistics for repeated timing measurements.  Median and
   MAD are used instead of mean/stddev because timing samples are
   heavy-tailed (scheduler preemption, GC pauses): one outlier moves the
   mean arbitrarily but shifts the median by at most one rank. *)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let percentile ~p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Qdt_obs.Stats.percentile: empty sample array";
  if not (Float.is_finite p) || p < 0.0 || p > 100.0 then
    invalid_arg "Qdt_obs.Stats.percentile: p outside [0, 100]";
  let s = sorted samples in
  if n = 1 then s.(0)
  else begin
    (* linear interpolation between closest ranks *)
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median samples = percentile ~p:50.0 samples

let mad samples =
  let m = median samples in
  median (Array.map (fun x -> Float.abs (x -. m)) samples)

type summary = { median : float; mad : float; min : float; max : float; reps : int }

let summary samples =
  if Array.length samples = 0 then invalid_arg "Qdt_obs.Stats.summary: empty sample array";
  {
    median = median samples;
    mad = mad samples;
    min = Array.fold_left Float.min samples.(0) samples;
    max = Array.fold_left Float.max samples.(0) samples;
    reps = Array.length samples;
  }

let separated a b =
  a.reps >= 5 && b.reps >= 5 && (a.max < b.min || b.max < a.min)

let summary_to_json s =
  Printf.sprintf "{\"median\": %s, \"mad\": %s, \"min\": %s, \"max\": %s, \"reps\": %d}"
    (Json.float s.median) (Json.float s.mad) (Json.float s.min) (Json.float s.max)
    s.reps

let summary_of_json j =
  let num field =
    match Json.member field j with
    | Some v -> (
        match Json.to_number v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "field %S is not a number" field))
    | None -> Error (Printf.sprintf "missing field %S" field)
  in
  match (num "median", num "mad", num "min", num "max", num "reps") with
  | Ok median, Ok mad, Ok min, Ok max, Ok reps ->
      Ok { median; mad; min; max; reps = int_of_float reps }
  | Error e, _, _, _, _
  | _, Error e, _, _, _
  | _, _, Error e, _, _
  | _, _, _, Error e, _
  | _, _, _, _, Error e ->
      Error e
