(* The backend registry: the single place the CLI, bench harness, server,
   examples and tests discover simulation engines.  Built-in engines are
   registered at module initialisation; [register] lets future backends
   plug in without touching any consumer. *)

let table : (string, Backend.engine) Hashtbl.t = Hashtbl.create 8
let order : string list ref = ref []

let register (module S : Backend.SESSION) =
  if not (Hashtbl.mem table S.name) then order := S.name :: !order;
  Hashtbl.replace table S.name (module S : Backend.SESSION)

let find_session name : Backend.engine option = Hashtbl.find_opt table name
let names () = List.rev !order

let all () =
  List.filter_map (fun name -> Hashtbl.find_opt table name) (names ())

let capabilities_of name =
  Option.map (fun (module S : Backend.SESSION) -> S.capabilities) (find_session name)

(* Edit distance for "did you mean …?" on unknown backend names. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id and cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* [suggest name] — the registered backend closest to [name], if any is
   close enough to be a plausible typo (distance <= max(2, |cand|/3)). *)
let suggest name =
  let lowered = String.lowercase_ascii name in
  List.fold_left
    (fun best cand ->
      let d = levenshtein lowered (String.lowercase_ascii cand) in
      if d > max 2 (String.length cand / 3) then best
      else
        match best with
        | Some (_, best_d) when best_d <= d -> best
        | _ -> Some (cand, d))
    None (names ())
  |> Option.map fst

let () =
  List.iter register
    [
      (module Backend_arrays.Session : Backend.SESSION);
      (module Backend_dd.Session : Backend.SESSION);
      (module Backend_tensornet.Session : Backend.SESSION);
      (module Backend_mps.Session : Backend.SESSION);
      (module Backend_stabilizer.Session : Backend.SESSION);
      (module Backend_auto.Session : Backend.SESSION);
    ]
