(* Minimal HTTP/1.1 — request parsing and response writing over stdlib
   channels.  See http.mli for the (deliberately narrow) scope. *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

(* input_line-alike that requires CRLF-or-LF termination and
   distinguishes "peer closed before any byte" (None) from a torn line.
   SO_RCVTIMEO on the socket surfaces as EAGAIN/EWOULDBLOCK from the
   underlying read — treated as a clean close for the between-requests
   case by the caller. *)
let read_line ic =
  match input_line ic with
  | exception End_of_file -> None
  | line ->
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then Some (String.sub line 0 (n - 1))
      else Some line

(* The request target without its query string. *)
let path_of_target target =
  match String.index_opt target '?' with
  | None -> target
  | Some i -> String.sub target 0 i

let read_headers ic =
  let rec go acc n =
    if n > 128 then Error "too many headers"
    else
      match read_line ic with
      | None -> Error "connection closed inside headers"
      | Some "" -> Ok (List.rev acc)
      | Some line -> (
          match String.index_opt line ':' with
          | None -> Error (Printf.sprintf "malformed header line %S" line)
          | Some i ->
              let name =
                String.lowercase_ascii (String.trim (String.sub line 0 i))
              in
              let value =
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              go ((name, value) :: acc) (n + 1))
  in
  go [] 0

let read_request ~max_body_bytes ic =
  match read_line ic with
  | None -> Ok None
  | exception
      Sys_error _
  (* closed under us *)
  ->
      Ok None
  | Some request_line -> (
      match
        String.split_on_char ' ' request_line |> List.filter (fun t -> t <> "")
      with
      | [ meth; target; version ]
        when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
          match read_headers ic with
          | Error e -> Error e
          | Ok headers -> (
              let path = path_of_target target in
              let content_length =
                match List.assoc_opt "content-length" headers with
                | None -> Ok 0
                | Some v -> (
                    match int_of_string_opt (String.trim v) with
                    | Some n when n >= 0 -> Ok n
                    | _ -> Error (Printf.sprintf "bad content-length %S" v))
              in
              match content_length with
              | Error e -> Error e
              | Ok n when n > max_body_bytes ->
                  Error (Printf.sprintf "body of %d bytes exceeds limit %d" n
                           max_body_bytes)
              | Ok n -> (
                  match really_input_string ic n with
                  | body ->
                      Ok
                        (Some
                           {
                             meth = String.uppercase_ascii meth;
                             path;
                             headers;
                             body;
                           })
                  | exception End_of_file ->
                      Error "connection closed inside body")))
      | _ -> Error (Printf.sprintf "malformed request line %S" request_line))

type response = {
  status : int;
  content_type : string;
  extra_headers : (string * string) list;
  resp_body : string;
}

let response ?(content_type = "application/json") ?(extra_headers = []) ~status
    body =
  { status; content_type; extra_headers; resp_body = body }

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let write_response oc r =
  let b = Buffer.create (String.length r.resp_body + 256) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status (reason r.status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" r.content_type);
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length r.resp_body));
  Buffer.add_string b "Connection: keep-alive\r\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    r.extra_headers;
  Buffer.add_string b "\r\n";
  Buffer.add_string b r.resp_body;
  output_string oc (Buffer.contents b);
  flush oc

(* A dotted quad parses directly; anything else goes through the
   system resolver, except names in the reserved "invalid" domain,
   which never resolve and are not looked up (RFC 6761, section 6.4).
   A name that does not resolve is an error, never loopback. *)
let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      let reserved = String.ends_with ~suffix:".invalid" ("." ^ String.lowercase_ascii host) in
      match if reserved then [||] else (Unix.gethostbyname host).Unix.h_addr_list with
      | [||] | (exception Not_found) ->
          raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "gethostbyname", host))
      | addrs -> addrs.(0))
