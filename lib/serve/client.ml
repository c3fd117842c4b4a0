(* Minimal blocking HTTP/1.1 client over one keep-alive connection. *)

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let connect ~host ~port =
  let addr = Http.resolve_host host in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let ( let* ) = Result.bind

let read_line ic =
  match input_line ic with
  | exception (End_of_file | Sys_error _) -> Error "connection closed"
  | line ->
      let n = String.length line in
      if n > 0 && line.[n - 1] = '\r' then Ok (String.sub line 0 (n - 1))
      else Ok line

let read_status ic =
  let* line = read_line ic in
  match String.split_on_char ' ' line with
  | _http :: code :: _ -> (
      match int_of_string_opt code with
      | Some status -> Ok status
      | None -> Error ("bad status line: " ^ line))
  | _ -> Error ("bad status line: " ^ line)

let rec read_headers ic acc =
  let* line = read_line ic in
  if line = "" then Ok (List.rev acc)
  else
    match String.index_opt line ':' with
    | None -> read_headers ic acc
    | Some i ->
        let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
        let value =
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        in
        read_headers ic ((name, value) :: acc)

let read_body ic headers =
  let* n =
    match List.assoc_opt "content-length" headers with
    | None -> Ok 0
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 -> Ok n
        | _ -> Error ("bad content-length: " ^ v))
  in
  match really_input_string ic n with
  | body -> Ok body
  | exception (End_of_file | Sys_error _) -> Error "connection closed in body"

let request c ~meth ~path ?(body = "") () =
  let* () =
    match
      output_string c.oc
        (Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: qdt\r\nContent-Length: %d\r\n\r\n%s" meth
           path (String.length body) body);
      flush c.oc
    with
    | () -> Ok ()
    | exception (Sys_error _ | Unix.Unix_error _) -> Error "write failed"
  in
  let* status = read_status c.ic in
  let* headers = read_headers c.ic [] in
  let* resp_body = read_body c.ic headers in
  Ok (status, headers, resp_body)

let get c path =
  Result.map (fun (s, _, b) -> (s, b)) (request c ~meth:"GET" ~path ())

let post c ~path ~body =
  Result.map (fun (s, _, b) -> (s, b)) (request c ~meth:"POST" ~path ~body ())
