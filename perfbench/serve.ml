(* The server under test as a separate process, and a keep-alive HTTP
   client of the benchmark's own. *)

type proc = { pid : int; port : int; out_r : Unix.file_descr; flags : string list }

let now = Unix.gettimeofday

(* [spawn ~exe ~flags] starts [exe serve --port 0 flags] and waits for
   the line that names the port it bound. *)
let spawn ~exe ~flags =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((exe :: "serve" :: "--port" :: "0" :: flags)) in
  let pid = Unix.create_process exe argv Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let buf = Buffer.create 128 in
  let b = Bytes.create 1 in
  let deadline = now () +. 30.0 in
  let rec line () =
    if now () > deadline then None
    else
      match Unix.select [ out_r ] [] [] (deadline -. now ()) with
      | [], _, _ -> None
      | _ -> (
          match Unix.read out_r b 0 1 with
          | 0 -> None
          | _ when Bytes.get b 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_bytes buf b;
              line ())
  in
  let kill () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close out_r
  in
  match line () with
  | Some l -> (
      match String.rindex_opt l ':' with
      | Some i -> (
          let tail = String.sub l (i + 1) (String.length l - i - 1) in
          match Scanf.sscanf_opt tail "%d" Fun.id with
          | Some port -> { pid; port; out_r; flags = "serve" :: "--port" :: "0" :: flags }
          | None -> kill (); failwith ("server printed " ^ l))
      | None -> kill (); failwith ("server printed " ^ l))
  | None -> kill (); failwith "server did not report its port"

(* SIGTERM, then wait for the process to exit. *)
let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] p.pid);
  try Unix.close p.out_r with Unix.Unix_error _ -> ()

(* The server's peak resident set in MB, from its /proc status. *)
let vm_hwm_mb p =
  match open_in (Printf.sprintf "/proc/%d/status" p.pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> Some (float_of_int kb /. 1024.0)
            | None -> go ())
      in
      let r = go () in
      close_in ic;
      r

(* ---- Client ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel; peer : string }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0
   with e ->
     Unix.close fd;
     raise e);
  let peer =
    (* How the server's access log names this connection. *)
    match Unix.getsockname fd with
    | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX s -> s
  in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; peer }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type response = { status : int; body : string; req_bytes : int; resp_bytes : int }

let request_bytes ~meth ~path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: qdt\r\nContent-Length: %d\r\n\r\n%s" meth path
    (String.length body) body

(* One exchange; [Error] when the connection broke or timed out. *)
let exchange c raw =
  match
    output_string c.oc raw;
    flush c.oc;
    let status_line = input_line c.ic in
    let status = Scanf.sscanf status_line "HTTP/1.%_d %d" Fun.id in
    let hbytes = ref (String.length status_line + 1) in
    let length = ref 0 in
    let rec headers () =
      let l = input_line c.ic in
      hbytes := !hbytes + String.length l + 1;
      if String.trim l <> "" then begin
        (match String.index_opt l ':' with
        | Some i when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
            length := int_of_string (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> ());
        headers ()
      end
    in
    headers ();
    let body = really_input_string c.ic !length in
    { status; body; req_bytes = String.length raw; resp_bytes = !hbytes + !length }
  with
  | r -> Ok r
  | exception (End_of_file | Sys_error _ | Unix.Unix_error _ | Failure _ | Scanf.Scan_failure _) ->
      Error "connection broke or timed out"

let get c path = exchange c (request_bytes ~meth:"GET" ~path "")

(* Poll /healthz on fresh connections until it answers 200. *)
let wait_healthy port =
  let deadline = now () +. 30.0 in
  let rec go () =
    let ok =
      match connect port with
      | exception Unix.Unix_error _ -> false
      | c ->
          let r = get c "/healthz" in
          close c;
          (match r with Ok { status = 200; _ } -> true | _ -> false)
    in
    if ok then ()
    else if now () > deadline then failwith "server never answered /healthz"
    else (Unix.sleepf 0.005; go ())
  in
  go ()
