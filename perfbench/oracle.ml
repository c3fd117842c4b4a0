(* The payload oracle.  At set-up every static circuit of the workload is
   run in-process on the [arrays] engine; each served response is checked
   against that state.  Dynamic circuits have no single final state, so
   their responses are checked against the backend the response names,
   run in-process on the same job with the same seed.

   The wire format prints numbers with six significant digits, so two
   values "agree to 1e-9" when they differ by at most 1e-9 plus the
   rounding of that format (5e-6 of the value).  Decision diagrams snap
   every edge weight to a 1e-9 grid and an amplitude is a product of
   n+1 weights, so answers from that backend are held to (n+1)·1e-9. *)

module Q = Qdt_api
module W = Workload

type t = {
  w : W.t;
  parsed : Q.circuit array;
  states : (float * float) array option array;  (** [None] for dynamic circuits *)
  dynamic_refs : (string * string, Q.payload) Hashtbl.t;  (** (backend, body) *)
  mu : Mutex.t;
}

let tol_for ~backend ~qubits = if backend = "decision-diagrams" then float_of_int (qubits + 1) *. 1e-9 else 1e-9

let close ~tol a b = Float.abs (a -. b) <= tol +. (5e-6 *. Float.max (Float.abs a) (Float.abs b))

let build (w : W.t) =
  let parsed = Array.map (fun (c : W.circ) -> Q.of_qasm c.qasm) w.circuits in
  let states =
    Array.mapi
      (fun i (c : W.circ) ->
        if c.dynamic then None
        else
          match Q.run_once "arrays" parsed.(i) Q.full_state with
          | Ok (Q.State v) -> Some v
          | Ok _ -> failwith "arrays returned no state"
          | Error e -> failwith ("arrays reference for " ^ c.cname ^ ": " ^ e))
      w.circuits
  in
  { w; parsed; states; dynamic_refs = Hashtbl.create 16; mu = Mutex.create () }

let job_of = function
  | W.Full_state -> Q.full_state
  | W.Amplitude k -> Q.amplitude k
  | W.Sample { seed; shots } -> Q.sample ~seed ~shots
  | W.Expz { seed; qubit } -> Q.expectation_z ~seed ~qubit

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let need what = function Some x -> Ok x | None -> fail "missing %s" what

let num_at v path = need (String.concat "." path) (Jsonv.num (Jsonv.path path v))

let int_pair = function
  | Jsonv.Arr [ Jsonv.Num a; Jsonv.Num b ] when Float.is_integer a && Float.is_integer b ->
      Ok (int_of_float a, int_of_float b)
  | _ -> fail "malformed counts entry"

let counts_of result =
  match Jsonv.member "counts" result with
  | Some (Jsonv.Arr l) ->
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          let* p = int_pair e in
          Ok (p :: acc))
        (Ok []) l
      |> Result.map List.rev
  | _ -> fail "missing counts"

let expect_kind result k =
  match Jsonv.str (Jsonv.member "kind" result) with
  | Some s when s = k -> Ok ()
  | Some s -> fail "result kind %s, expected %s" s k
  | None -> fail "result without kind"

let check_counts ~shots ~dim ~prob counts =
  let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  if total <> shots then fail "counts sum to %d, expected %d shots" total shots
  else
    match List.find_opt (fun (k, c) -> k < 0 || k >= dim || c <= 0 || prob k <= 1e-12) counts with
    | Some (k, c) -> fail "outcome %d (count %d) has reference probability <= 1e-12" k c
    | None -> Ok ()

let check_static ~tol ~expz_tol state kind result =
  let close_expz = close ~tol:expz_tol in
  let close = close ~tol in
  let dim = Array.length state in
  let prob k = let re, im = state.(k) in (re *. re) +. (im *. im) in
  match kind with
  | W.Full_state ->
      let* () = expect_kind result "state" in
      let* d = num_at result [ "dim" ] in
      if int_of_float d <> dim then fail "dim %g, expected %d" d dim
      else
        let served = Hashtbl.create 64 in
        let* () =
          match Jsonv.member "amplitudes" result with
          | Some (Jsonv.Arr l) ->
              List.fold_left
                (fun acc e ->
                  let* () = acc in
                  match e with
                  | Jsonv.Arr [ Jsonv.Num k; Jsonv.Num re; Jsonv.Num im ]
                    when Float.is_integer k && k >= 0.0 && int_of_float k < dim ->
                      Hashtbl.replace served (int_of_float k) (re, im);
                      Ok ()
                  | _ -> fail "malformed state entry")
                (Ok ()) l
          | _ -> fail "missing amplitudes"
        in
        let rec go k =
          if k >= dim then Ok ()
          else
            let re, im = state.(k) in
            match Hashtbl.find_opt served k with
            | Some (sre, sim) ->
                if close sre re && close sim im then go (k + 1)
                else fail "amplitude %d: served (%g, %g), reference (%g, %g)" k sre sim re im
            | None ->
                (* Omitted entries have served probability <= 1e-12. *)
                if Float.sqrt (prob k) <= 1e-6 +. tol then go (k + 1)
                else fail "amplitude %d missing, reference (%g, %g)" k re im
        in
        go 0
  | W.Amplitude k ->
      let* () = expect_kind result "amplitude" in
      let* sre = num_at result [ "re" ] in
      let* sim = num_at result [ "im" ] in
      let re, im = state.(k) in
      if close sre re && close sim im then Ok ()
      else fail "amplitude %d: served (%g, %g), reference (%g, %g)" k sre sim re im
  | W.Sample { shots; _ } ->
      let* () = expect_kind result "counts" in
      let* counts = counts_of result in
      check_counts ~shots ~dim ~prob counts
  | W.Expz { qubit; _ } ->
      let* () = expect_kind result "expectation" in
      let* v = num_at result [ "value" ] in
      let e = ref 0.0 in
      for k = 0 to dim - 1 do
        if (k lsr qubit) land 1 = 0 then e := !e +. prob k else e := !e -. prob k
      done;
      if close_expz v !e then Ok ()
      else fail "<Z_%d>: served %g, reference %g" qubit v !e

let dynamic_ref t ~backend (req : W.req) =
  let key = (backend, req.body) in
  Mutex.lock t.mu;
  let cached = Hashtbl.find_opt t.dynamic_refs key in
  Mutex.unlock t.mu;
  match cached with
  | Some p -> Ok p
  | None ->
      let* p = Q.run_once backend t.parsed.(req.circ) (job_of req.kind) in
      Mutex.lock t.mu;
      Hashtbl.replace t.dynamic_refs key p;
      Mutex.unlock t.mu;
      Ok p

let check_dynamic t ~backend (req : W.req) result =
  let* reference = dynamic_ref t ~backend req in
  match (req.kind, reference) with
  | W.Sample _, Q.Counts ref_counts ->
      let* () = expect_kind result "counts" in
      let* counts = counts_of result in
      if List.sort compare counts = List.sort compare ref_counts then Ok ()
      else fail "counts differ from %s run in-process with the same seed" backend
  | W.Expz _, Q.Expectation e ->
      let* () = expect_kind result "expectation" in
      let* v = num_at result [ "value" ] in
      if close ~tol:0.0 v e then Ok () else fail "<Z>: served %g, %s in-process %g" v backend e
  | _ -> fail "no dynamic reference for this job kind"

(* [check t req body] — [Ok ()] when [body] is a correct answer to [req]. *)
let check t (req : W.req) body =
  let* v = match Jsonv.parse body with Ok v -> Ok v | Error e -> fail "bad JSON: %s" e in
  let* () =
    match Jsonv.member "ok" v with
    | Some (Jsonv.Bool true) -> Ok ()
    | _ -> fail "not ok: %s" (if String.length body > 200 then String.sub body 0 200 else body)
  in
  let* result = need "result" (Jsonv.member "result" v) in
  let* backend = need "backend" (Jsonv.str (Jsonv.member "backend" v)) in
  match t.states.(req.circ) with
  | Some state ->
      let tol = tol_for ~backend ~qubits:t.w.circuits.(req.circ).qubits in
      (* <Z> sums 2^n probabilities, each off by at most tol·(|a|+|b|),
         so by Cauchy–Schwarz it is off by at most 2·tol·sqrt(2^n). *)
      let expz_tol =
        if backend = "decision-diagrams" then 2.0 *. tol *. Float.sqrt (float_of_int (Array.length state))
        else tol
      in
      check_static ~tol ~expz_tol state req.kind result
  | None -> check_dynamic t ~backend req result

(* A copy of a correct body whose payload is wrong: one shot moves into
   the first count, or the first number of any other result moves. *)
let corrupt body =
  let bumped = ref false in
  let rec bump = function
    | Jsonv.Num f when not !bumped ->
        bumped := true;
        Jsonv.Num (if Float.is_integer f then f +. 1.0 else f +. 0.01)
    | Jsonv.Arr [ (Jsonv.Num _ as k); c ] when not !bumped -> Jsonv.Arr [ k; bump c ]
    | Jsonv.Arr l -> Jsonv.Arr (List.map bump l)
    | Jsonv.Obj fs -> Jsonv.Obj (List.map (fun (k, x) -> (k, if k = "kind" then x else bump x)) fs)
    | x -> x
  in
  match Jsonv.parse body with
  | Ok (Jsonv.Obj fs) ->
      Jsonv.to_string
        (Jsonv.Obj (List.map (fun (k, x) -> (k, if k = "result" then bump x else x)) fs))
  | _ -> body ^ "}"
