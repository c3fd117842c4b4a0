(** Minimal HTTP/1.1 on stdlib channels — just enough protocol for
    [qdt serve] and its client: one request/response exchange over a
    keep-alive connection, [Content-Length] bodies, no chunked encoding,
    no TLS.  The point is zero new dependencies, not generality. *)

type request = {
  meth : string;  (** uppercase, e.g. ["GET"] *)
  path : string;  (** path without the query string *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

(** [read_request ~max_body_bytes ic] — the next request on a keep-alive
    connection.  [Ok None] when the peer closed (or went idle past the
    socket timeout) between requests — the clean end of a connection;
    [Error] on a malformed or oversized request (the connection should
    be dropped after one best-effort error response). *)
val read_request :
  max_body_bytes:int -> in_channel -> (request option, string) result

type response = {
  status : int;
  content_type : string;
  extra_headers : (string * string) list;
  resp_body : string;
}

val response :
  ?content_type:string ->
  ?extra_headers:(string * string) list ->
  status:int ->
  string ->
  response

(** Standard reason phrase for the status codes this server emits. *)
val reason : int -> string

(** [write_response oc resp] — serialise with [Content-Length] and
    [Connection: keep-alive], and flush. *)
val write_response : out_channel -> response -> unit

(** [resolve_host host] — the IPv4 address the server binds and the
    client connects to: [host] as a dotted quad, or resolved by name.
    Raises [Unix.Unix_error] when the name does not resolve (names in
    the reserved ["invalid"] domain never do, and are not looked up). *)
val resolve_host : string -> Unix.inet_addr
