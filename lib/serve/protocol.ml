(* JSON encode/decode for the serve job protocol.  Parsing leans on
   Qdt_obs.Json (the same parser the report reader uses); encoding is
   hand-assembled strings like report.ml, so the whole protocol stays
   dependency-free. *)

module Json = Qdt_obs.Json

type job_request = {
  qasm : string;
  backend : string;
  job : Qdt.Job.t;
  session : string option;
  timeout_ms : int option;
}

let ( let* ) = Result.bind

let str_field ?default obj name =
  match Option.bind (Json.member name obj) Json.to_string with
  | Some s -> Ok s
  | None -> (
      match (Json.member name obj, default) with
      | None, Some d -> Ok d
      | _ -> Error (Printf.sprintf "field %S: expected a string" name))

(* JSON numbers are exact integers up to 2^53 in magnitude; past that a
   number need not be the integer the client wrote, and [int_of_float] is
   unspecified outside the int range. *)
let max_exact_int = 0x1p53

let int_field ?default obj name =
  match Json.member name obj with
  | None -> (
      match default with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "field %S: required" name))
  | Some v -> (
      match Json.to_number v with
      | Some f when Float.is_integer f && Float.abs f <= max_exact_int -> Ok (int_of_float f)
      | _ -> Error (Printf.sprintf "field %S: expected an integer" name))

(* The longest budget a job may run under: one day.  The server waits on
   [Unix.select], which rejects waits of 2^31 s or more, and converts the
   budget to nanoseconds in an int. *)
let max_timeout_ms = 86_400_000

let job_of_json v =
  let* kind = str_field v "kind" in
  match kind with
  | "full_state" -> Ok Qdt.Job.Full_state
  | "amplitude" ->
      let* index = int_field v "index" in
      Ok (Qdt.Job.Amplitude index)
  | "sample" ->
      let* seed = int_field ~default:0 v "seed" in
      let* shots = int_field v "shots" in
      if shots <= 0 then Error "field \"shots\": must be positive"
      else Ok (Qdt.Job.Sample { seed; shots })
  | "expectation_z" ->
      let* seed = int_field ~default:0 v "seed" in
      let* qubit = int_field v "qubit" in
      Ok (Qdt.Job.Expectation_z { seed; qubit })
  | k ->
      Error
        (Printf.sprintf
           "job kind %S: expected full_state, amplitude, sample or \
            expectation_z"
           k)

let job_request_of_string body =
  match Json.parse body with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok (Json.Object _ as obj) ->
      let* qasm =
        match Option.bind (Json.member "qasm" obj) Json.to_string with
        | Some s when String.trim s <> "" -> Ok s
        | _ -> Error "field \"qasm\": required (OpenQASM 2.0 source)"
      in
      let* backend = str_field ~default:"auto" obj "backend" in
      let* job =
        match Json.member "job" obj with
        | None -> Ok Qdt.Job.Full_state
        | Some jv -> job_of_json jv
      in
      let* session =
        match Json.member "session" obj with
        | None | Some Json.Null -> Ok None
        | Some v -> (
            match Json.to_string v with
            | Some s when s <> "" -> Ok (Some s)
            | _ -> Error "field \"session\": expected a non-empty string")
      in
      let* timeout_ms =
        match Json.member "timeout_ms" obj with
        | None -> Ok None
        | Some _ ->
            let* t = int_field obj "timeout_ms" in
            if t <= 0 then Error "field \"timeout_ms\": must be positive"
            else if t > max_timeout_ms then
              Error
                (Printf.sprintf "field \"timeout_ms\": at most %d (one day)" max_timeout_ms)
            else Ok (Some t)
      in
      Ok { qasm; backend; job; session; timeout_ms }
  | Ok _ -> Error "expected a JSON object"

let circuit_of req =
  match Qdt_circuit.Qasm.of_string req.qasm with
  | c -> Ok c
  | exception Qdt_circuit.Qasm.Parse_error msg -> Error ("qasm: " ^ msg)

let close_request_of_string body =
  match Json.parse body with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok obj -> (
      match Option.bind (Json.member "session" obj) Json.to_string with
      | Some s when s <> "" -> Ok s
      | _ -> Error "field \"session\": required")

(* ------------------------------------------------------------------ *)
(* Response bodies                                                     *)
(* ------------------------------------------------------------------ *)

(* Dense states render sparsely: index/re/im triples for entries with
   probability above 1e-12, capped so a response stays bounded no
   matter the qubit count. *)
let max_state_entries = 4096

let result_json (payload : Qdt.Job.result) =
  match payload with
  | Qdt.Job.State v ->
      let dim = Qdt.Linalg.Vec.length v in
      let entries = ref [] in
      let n = ref 0 in
      Qdt.Linalg.Vec.iteri
        (fun k amp ->
          if Qdt.Linalg.Cx.norm2 amp > 1e-12 && !n < max_state_entries then begin
            incr n;
            entries :=
              Printf.sprintf "[%d, %s, %s]" k
                (Json.float amp.Qdt.Linalg.Cx.re)
                (Json.float amp.Qdt.Linalg.Cx.im)
              :: !entries
          end)
        v;
      Json.obj
        [
          ("kind", Json.string "state");
          ("dim", Json.int dim);
          ("amplitudes",
           Printf.sprintf "[%s]" (String.concat ", " (List.rev !entries)));
        ]
  | Qdt.Job.Amplitude_of a ->
      Json.obj
        [
          ("kind", Json.string "amplitude");
          ("re", Json.float a.Qdt.Linalg.Cx.re);
          ("im", Json.float a.Qdt.Linalg.Cx.im);
        ]
  | Qdt.Job.Counts counts ->
      Json.obj
        [
          ("kind", Json.string "counts");
          ("counts",
           Printf.sprintf "[%s]"
             (String.concat ", "
                (List.map (fun (k, c) -> Printf.sprintf "[%d, %d]" k c) counts)));
        ]
  | Qdt.Job.Expectation e ->
      Json.obj [ ("kind", Json.string "expectation"); ("value", Json.float e) ]

let ok_body ~job ~payload ~(stats : Qdt.Backend.stats) ~queue_wait_ns ~run_ns =
  Json.obj
    [
      ("ok", "true");
      ("job", Json.string (Qdt.Job.describe job));
      ("backend", Json.string stats.Qdt.Backend.backend);
      ("result", result_json payload);
      ("stats", Qdt.Backend.stats_to_json stats);
      ("queue_wait_ns", Json.int queue_wait_ns);
      ("run_ns", Json.int run_ns);
    ]

let error_body ~typ ~message extra =
  Json.obj
    [
      ("ok", "false");
      ( "error",
        Json.obj
          (("type", Json.string typ)
          :: ("message", Json.string message)
          :: extra) );
    ]
