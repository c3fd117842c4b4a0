(* Exact order statistics over every sample kept (no histogram buckets). *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median a = percentile 50.0 a

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* The highest of p99, p95 and p90 that leaves at least ten samples
   above it among [n]; p90 when even that does not. *)
let tail_percentile n =
  let beyond p = (1.0 -. (p /. 100.0)) *. float_of_int n in
  match List.find_opt (fun p -> beyond p >= 10.0) [ 99.0; 95.0; 90.0 ] with
  | Some p -> p
  | None -> 90.0
