(* Named warm sessions.  The existential packing pairs a SESSION module
   with a value of its abstract state type, so one table can hold
   engines of all six backends.

   Locking: [mu] guards the table and the LRU clock only and is never
   held across an engine call; each entry's [emu] serialises submits on
   that engine (engines are not domain-safe).  Eviction and close
   remove the entry from the table under [mu] first, then take [emu] to
   close — so an in-flight submit finishes before its engine dies, and
   a submit that raced past removal lands on a closed engine and gets
   the typed session-closed error (exactly the PR 9 contract). *)

type packed =
  | Packed : (module Qdt.Backend.SESSION with type t = 's) * 's -> packed

type entry = {
  backend : string;
  packed : packed;
  emu : Mutex.t;
  mutable last_used : int;
}

type t = {
  mu : Mutex.t;
  table : (string, entry) Hashtbl.t;
  max_sessions : int;
  mutable clock : int;
}

type error =
  | Backend_mismatch of { session : string; existing : string; requested : string }

let error_message (Backend_mismatch { session; existing; requested }) =
  Printf.sprintf "session %S is open on backend %S, not %S" session existing requested

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let create ~max_sessions =
  {
    mu = Mutex.create ();
    table = Hashtbl.create 16;
    max_sessions = max 1 max_sessions;
    clock = 0;
  }

let size t = locked t (fun () -> Hashtbl.length t.table)

let active_sessions = Qdt_obs.Metrics.gauge "qdt.serve.active_sessions"

let set_gauge t =
  Qdt_obs.Metrics.set active_sessions (float_of_int (Hashtbl.length t.table))

let close_entry e =
  Mutex.lock e.emu;
  (let (Packed ((module S), s)) = e.packed in
   try S.close s with _ -> ());
  Mutex.unlock e.emu

(* Least-recently-used victim; caller holds [t.mu]. *)
let lru_victim t =
  Hashtbl.fold
    (fun name e acc ->
      match acc with
      | Some (_, best) when best.last_used <= e.last_used -> acc
      | _ -> Some (name, e))
    t.table None

(* Find-or-create the entry; returns the evicted entry (to close outside
   the pool lock) alongside it. *)
let entry_for t ~session ~engine:(module S : Qdt.Backend.SESSION) =
  locked t @@ fun () ->
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.table session with
  | Some e when e.backend = S.name ->
      e.last_used <- t.clock;
      Ok (e, None)
  | Some e ->
      Error
        (Backend_mismatch
           { session; existing = e.backend; requested = S.name })
  | None ->
      let packed = Packed ((module S), S.create ()) in
      let e =
        { backend = S.name; packed; emu = Mutex.create (); last_used = t.clock }
      in
      let evicted =
        if Hashtbl.length t.table >= t.max_sessions then
          match lru_victim t with
          | Some (vname, ve) ->
              Hashtbl.remove t.table vname;
              Some ve
          | None -> None
        else None
      in
      Hashtbl.replace t.table session e;
      set_gauge t;
      Ok (e, evicted)

let submit t ~session ~engine c job =
  match entry_for t ~session ~engine with
  | Error e -> Error e
  | Ok (e, evicted) ->
      Option.iter close_entry evicted;
      Mutex.lock e.emu;
      let outcome =
        let (Packed ((module S), s)) = e.packed in
        try S.submit s c job
        with exn ->
          Mutex.unlock e.emu;
          raise exn
      in
      Mutex.unlock e.emu;
      Ok outcome

let close t ~session =
  let removed =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.table session with
    | None -> None
    | Some e ->
        Hashtbl.remove t.table session;
        set_gauge t;
        Some e
  in
  match removed with
  | None -> false
  | Some e ->
      close_entry e;
      true

let close_all t =
  let entries =
    locked t @@ fun () ->
    let es = Hashtbl.fold (fun _ e acc -> e :: acc) t.table [] in
    Hashtbl.reset t.table;
    set_gauge t;
    es
  in
  List.iter close_entry entries
