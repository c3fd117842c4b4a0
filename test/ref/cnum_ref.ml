(* Reference canonical complex table: the polymorphic-Hashtbl
   implementation [Qdt_dd.Cnum_table] replaced, kept verbatim so tests
   can require the same (id, value) from both on any query stream. *)
open Qdt_linalg

type t = {
  eps : float;
  buckets : (int * int, (int * Cx.t) list ref) Hashtbl.t;
  mutable next_id : int;
  mutable live : int;
}

let zero_id = 0
let one_id = 1

let create ?(eps = 1e-9) () =
  let table = { eps; buckets = Hashtbl.create 4096; next_id = 2; live = 0 } in
  (* Pre-seed zero and one so their ids are stable. *)
  let seed id z =
    let kr = int_of_float (Float.round (z.Cx.re /. eps)) in
    let ki = int_of_float (Float.round (z.Cx.im /. eps)) in
    let bucket =
      match Hashtbl.find_opt table.buckets (kr, ki) with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.replace table.buckets (kr, ki) b;
          b
    in
    bucket := (id, z) :: !bucket;
    table.live <- table.live + 1
  in
  seed zero_id Cx.zero;
  seed one_id Cx.one;
  table

let eps t = t.eps

let canonical t z =
  if Float.abs z.Cx.re <= t.eps && Float.abs z.Cx.im <= t.eps then (zero_id, Cx.zero)
  else begin
    let kr = int_of_float (Float.round (z.Cx.re /. t.eps)) in
    let ki = int_of_float (Float.round (z.Cx.im /. t.eps)) in
    let found = ref None in
    (* Probe the quantised bucket and its 8 neighbours so values straddling
       a grid boundary still unify. *)
    (try
       for dr = -1 to 1 do
         for di = -1 to 1 do
           match Hashtbl.find_opt t.buckets (kr + dr, ki + di) with
           | None -> ()
           | Some bucket ->
               List.iter
                 (fun (id, v) ->
                   if Cx.approx_equal ~eps:t.eps v z then begin
                     found := Some (id, v);
                     raise Exit
                   end)
                 !bucket
         done
       done
     with Exit -> ());
    match !found with
    | Some hit -> hit
    | None ->
        let id = t.next_id in
        t.next_id <- id + 1;
        let bucket =
          match Hashtbl.find_opt t.buckets (kr, ki) with
          | Some b -> b
          | None ->
              let b = ref [] in
              Hashtbl.replace t.buckets (kr, ki) b;
              b
        in
        bucket := (id, z) :: !bucket;
        t.live <- t.live + 1;
        (id, z)
  end

let sweep t ~live =
  (* Ids are monotonic and never reused: a swept value that reappears is
     simply assigned a fresh id, so stale ids held outside the table can
     never collide with future entries. *)
  let removed = ref 0 in
  let empty = ref [] in
  Hashtbl.iter
    (fun key bucket ->
      let kept =
        List.filter
          (fun (id, _) ->
            if live id then true
            else begin
              incr removed;
              false
            end)
          !bucket
      in
      bucket := kept;
      if kept = [] then empty := key :: !empty)
    t.buckets;
  List.iter (Hashtbl.remove t.buckets) !empty;
  t.live <- t.live - !removed;
  !removed

let size t = t.next_id
let live_entries t = t.live
