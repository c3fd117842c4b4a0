open Qdt_linalg

(* One grid cell: the quantised coordinates and the values stored there,
   newest first.  Entries are the [(id, v)] pairs [canonical] returns, so
   a hit hands back the stored pair without allocating. *)
type cell = { kr : int; ki : int; mutable entries : (int * Cx.t) list }

type t = {
  eps : float;
  (* Chained hash table of cells, keyed by [(kr, ki)] mixed as ints. *)
  mutable buckets : cell list array;
  mutable cells : int;
  mutable next_id : int;
  mutable live : int;
}

let zero_id = 0
let one_id = 1
let zero_entry = (zero_id, Cx.zero)

(* Sentinels for "no such cell" and "no matching entry", compared
   physically so a probe needs neither an option nor an exception. *)
let no_cell = { kr = 0; ki = 0; entries = [] }
let no_entry = (-1, Cx.zero)

let slot buckets kr ki =
  let h = (kr * 0x9e3779b1) lxor (ki * 0x85ebca77) in
  (h lxor (h lsr 17)) land (Array.length buckets - 1)

let rec find_cell kr ki = function
  | [] -> no_cell
  | c :: rest -> if c.kr = kr && c.ki = ki then c else find_cell kr ki rest

let cell t kr ki = find_cell kr ki (Array.unsafe_get t.buckets (slot t.buckets kr ki))

let grow t =
  let old = t.buckets in
  let buckets = Array.make (2 * Array.length old) [] in
  Array.iter
    (List.iter (fun c ->
         let i = slot buckets c.kr c.ki in
         buckets.(i) <- c :: buckets.(i)))
    old;
  t.buckets <- buckets

(* Push a fresh entry onto the front of cell [(kr, ki)], creating the cell
   on first use. *)
let push t kr ki entry =
  let c = cell t kr ki in
  if c != no_cell then c.entries <- entry :: c.entries
  else begin
    if t.cells >= 2 * Array.length t.buckets then grow t;
    let i = slot t.buckets kr ki in
    t.buckets.(i) <- { kr; ki; entries = [ entry ] } :: t.buckets.(i);
    t.cells <- t.cells + 1
  end;
  t.live <- t.live + 1

let quantise eps x = int_of_float (Float.round (x /. eps))

let create ?(eps = 1e-9) () =
  let table = { eps; buckets = Array.make 4096 []; cells = 0; next_id = 2; live = 0 } in
  (* Pre-seed zero and one so their ids are stable. *)
  let seed ((_, z) as entry) = push table (quantise eps z.Cx.re) (quantise eps z.Cx.im) entry in
  seed zero_entry;
  seed (one_id, Cx.one);
  table

let eps t = t.eps

let rec find_entry eps (z : Cx.t) = function
  | [] -> no_entry
  | ((_, (v : Cx.t)) as entry) :: rest ->
      if Float.abs (v.re -. z.re) <= eps && Float.abs (v.im -. z.im) <= eps then entry
      else find_entry eps z rest

(* Probe the quantised cell's 3×3 neighbourhood, row by row from
   [(kr-1, ki-1)] to [(kr+1, ki+1)], so values straddling a grid boundary
   still unify; within a cell the newest entry wins.  This order fixes
   which representative a query gets when several lie within eps. *)
let rec probe t z kr ki k =
  if k = 9 then no_entry
  else
    let entry = find_entry t.eps z (cell t (kr + (k / 3) - 1) (ki + (k mod 3) - 1)).entries in
    if entry != no_entry then entry else probe t z kr ki (k + 1)

let canonical t (z : Cx.t) =
  if Float.abs z.re <= t.eps && Float.abs z.im <= t.eps then zero_entry
  else begin
    let kr = quantise t.eps z.re and ki = quantise t.eps z.im in
    let found = probe t z kr ki 0 in
    if found != no_entry then found
    else begin
      let entry = (t.next_id, z) in
      t.next_id <- t.next_id + 1;
      push t kr ki entry;
      entry
    end
  end

let sweep t ~live =
  (* Ids are monotonic and never reused: a swept value that reappears is
     simply assigned a fresh id, so stale ids held outside the table can
     never collide with future entries.  Filtering keeps each cell's
     newest-first order. *)
  let removed = ref 0 in
  let keep (id, _) = live id || (incr removed; false) in
  Array.iteri
    (fun i cells ->
      t.buckets.(i) <-
        List.filter
          (fun c ->
            c.entries <- List.filter keep c.entries;
            match c.entries with
            | [] ->
                t.cells <- t.cells - 1;
                false
            | _ -> true)
          cells)
    t.buckets;
  t.live <- t.live - !removed;
  !removed

let size t = t.next_id
let live_entries t = t.live
