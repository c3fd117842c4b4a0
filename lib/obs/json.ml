(* Minimal JSON support shared by the metrics and trace exporters and the
   baseline store: string/float/int emission plus a small recursive-descent
   parser (the baseline comparison has to read files back, and the repo
   deliberately carries no JSON dependency). *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let string s = "\"" ^ escape s ^ "\""

(* JSON has no NaN/inf; clamp to null so emitted documents always parse. *)
let float f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else Printf.sprintf "%.6g" f

let int = string_of_int

(* Integral values print exactly (a node count of 1234567 is not
   1.23457e+06); everything else as [float]. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f else float f

(* [obj fields] — a JSON object of pre-rendered values, in field order. *)
let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> string k ^ ": " ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_failure of int * string

let parse src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_failure (!pos, msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let keyword k v =
    if !pos + String.length k <= n && String.sub src !pos (String.length k) = k then begin
      pos := !pos + String.length k;
      v
    end
    else fail (Printf.sprintf "expected %s" k)
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match src.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail "expected digits"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub src start (!pos - start)) with
    | Some f -> Number f
    | None -> fail "malformed number"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'
          | Some '\\' -> advance (); Buffer.add_char b '\\'
          | Some '/' -> advance (); Buffer.add_char b '/'
          | Some 'b' -> advance (); Buffer.add_char b '\b'
          | Some 'f' -> advance (); Buffer.add_char b '\012'
          | Some 'n' -> advance (); Buffer.add_char b '\n'
          | Some 'r' -> advance (); Buffer.add_char b '\r'
          | Some 't' -> advance (); Buffer.add_char b '\t'
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' as c) -> code := (!code * 16) + (Char.code c - Char.code '0')
                | Some ('a' .. 'f' as c) -> code := (!code * 16) + (Char.code c - Char.code 'a' + 10)
                | Some ('A' .. 'F' as c) -> code := (!code * 16) + (Char.code c - Char.code 'A' + 10)
                | _ -> fail "bad \\u escape");
                advance ()
              done;
              (* Only BMP escapes are produced by this library's emitters;
                 decode the common ASCII range, keep the rest as '?'. *)
              if !code < 0x80 then Buffer.add_char b (Char.chr !code)
              else Buffer.add_char b '?'
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char b c
    done;
    Buffer.contents b
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> String (string_lit ())
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Object []
    end
    else begin
      let fields = ref [] in
      let continue_ = ref true in
      while !continue_ do
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
            advance ();
            continue_ := false
        | _ -> fail "expected , or }"
      done;
      Object (List.rev !fields)
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Array []
    end
    else begin
      let items = ref [] in
      let continue_ = ref true in
      while !continue_ do
        items := value () :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' ->
            advance ();
            continue_ := false
        | _ -> fail "expected , or ]"
      done;
      Array (List.rev !items)
    end
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "offset %d: trailing garbage" !pos)
      else Ok v
  | exception Parse_failure (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_number = function Number f -> Some f | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
