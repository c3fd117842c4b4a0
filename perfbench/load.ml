(* The load process: one thread per keep-alive connection, driving the
   open-loop and closed-loop phases.  Threads only send, receive and
   time; every response is checked after its phase ends, so the checks
   do not compete with the server for the CPU while it is measured. *)

module W = Workload

type phase = Warmup | Open | Closed

type sample = {
  phase : phase;
  conn : int;
  peer : string;  (** the connection as the access log names it *)
  req : W.req;
  due : float;  (** when the open loop scheduled it (send time otherwise) *)
  send : float;
  fin : float;
  resp : (Serve.response, string) result;
}

type client = { id : int; port : int; mutable c : Serve.conn; mutable next : int }

let connect ~port id = { id; port; c = Serve.connect port; next = 0 }
let close cl = Serve.close cl.c

let send cl ~phase ~due (req : W.req) =
  let raw = Serve.request_bytes ~meth:"POST" ~path:"/v1/jobs" req.body in
  let peer = cl.c.Serve.peer in
  let send = Serve.now () in
  let resp = Serve.exchange cl.c raw in
  let fin = Serve.now () in
  (match resp with
  | Error _ -> (
      (* A broken connection cannot carry the next request. *)
      Serve.close cl.c;
      try cl.c <- Serve.connect cl.port with Unix.Unix_error _ -> ())
  | Ok _ -> ());
  { phase; conn = cl.id; peer; req; due = (if phase = Open then due else send); send; fin; resp }

(* Set-up: each connection's pool once, on its own session. *)
let warmup w clients =
  List.concat_map
    (fun cl ->
      Array.to_list
        (Array.map (fun req -> send cl ~phase:Warmup ~due:0.0 req) (W.warmup w ~conn:cl.id)))
    clients

let in_threads clients f =
  let results = Array.make (List.length clients) [] in
  let threads =
    List.mapi (fun i cl -> Thread.create (fun () -> results.(i) <- f cl) ()) clients
  in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

(* Open loop: each connection sends its own Poisson schedule; a job whose
   connection is still busy at its due time goes out late, and its
   latency still counts from the due time. *)
let open_loop w ~seed ~duration clients =
  let conns = List.length clients in
  let t0 = Serve.now () +. 0.02 in
  in_threads clients (fun cl ->
      let due = W.arrivals w ~seed ~conn:cl.id ~conns ~duration in
      Array.to_list
        (Array.map
           (fun a ->
             let due = t0 +. a in
             let wait = due -. Serve.now () in
             if wait > 0.0 then Thread.delay wait;
             let req = W.request w ~conn:cl.id cl.next in
             cl.next <- cl.next + 1;
             send cl ~phase:Open ~due req)
           due))

(* Closed loop: each connection sends its next job as soon as the last
   returns, until [duration] has passed.  Returns the start time and the
   samples. *)
let closed_loop w ~duration clients =
  let t0 = Serve.now () in
  let samples =
    in_threads clients (fun cl ->
        let rec go acc =
          if Serve.now () -. t0 >= duration then List.rev acc
          else begin
            let req = W.request w ~conn:cl.id cl.next in
            cl.next <- cl.next + 1;
            go (send cl ~phase:Closed ~due:0.0 req :: acc)
          end
        in
        go [])
  in
  (t0, samples)

let latency s = s.fin -. s.due

(* Throughput is the median over [windows] equal windows of the closed
   loop, so a slow episode of a shared host that covers a few windows
   moves it little. *)
let windows = 10

(* Jobs completed per second in each window.  A job is credited to the
   windows its [send, fin] interval overlaps, in proportion to the
   overlap, so a window of a few long jobs is not rounded to whole jobs. *)
let window_rates ~t0 ~duration samples =
  let w = duration /. float_of_int windows in
  let per = Array.make windows 0.0 in
  List.iter
    (fun s ->
      let len = s.fin -. s.send in
      for i = 0 to windows - 1 do
        let a = t0 +. (float_of_int i *. w) in
        let overlap = Float.min s.fin (a +. w) -. Float.max s.send a in
        if overlap > 0.0 then per.(i) <- per.(i) +. (overlap /. len)
      done)
    samples;
  Array.map (fun n -> n /. w) per
