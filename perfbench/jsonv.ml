(* A small JSON reader and writer of the benchmark's own, so that the
   check on a response does not depend on the parser of the program
   under test. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Int of int  (** written by the benchmark, never produced by [parse] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\r' || s.[!pos] = '\t')
    then (incr pos; ws ())
  in
  let expect c =
    if peek () <> c then raise (Bad (Printf.sprintf "expected %C at %d" c !pos));
    incr pos
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else raise (Bad (Printf.sprintf "bad literal at %d" !pos))
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then raise (Bad "unterminated escape");
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then raise (Bad "short \\u escape");
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> raise (Bad (Printf.sprintf "bad number at %d" start))
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            ws ();
            let k = str () in
            ws ();
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad (Printf.sprintf "expected , or } at %d" !pos))
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> raise (Bad (Printf.sprintf "expected , or ] at %d" !pos))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ -> num ()
  in
  match value () with
  | v ->
      ws ();
      if !pos <> n then Error (Printf.sprintf "trailing bytes at %d" !pos) else Ok v
  | exception Bad m -> Error m
  | exception Failure m -> Error m

let member k = function Obj fs -> List.assoc_opt k fs | _ -> None

(* [path ["stats"; "dd"; "peak_nodes"] v] *)
let rec path ks v =
  match ks with [] -> Some v | k :: rest -> Option.bind (member k v) (path rest)

let num = function
  | Some (Num f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None
let str = function Some (Str s) -> Some s | _ -> None

(* ---- Writing ---------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Finite floats with all their digits; JSON has no NaN or infinity. *)
let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> float_lit f
  | Int i -> string_of_int i
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj fs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) fs)
      ^ "}"
