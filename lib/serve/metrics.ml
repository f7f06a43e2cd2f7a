(* The /metrics exposition thread. See metrics.mli. The HTTP here is
   deliberately minimal: read the request head, look at the request
   line, answer one response, close. Prometheus scrapers and curl both
   speak exactly that much. *)

type t = {
  sock : Unix.file_descr;
  port : int;
  thread : Thread.t;
  stopping : bool Atomic.t;
}

let has_terminator s =
  (* end of the header block: CRLFCRLF (or bare LFLF from hand-typed
     clients) *)
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then false
    else if s.[i] = '\n' && (s.[i + 1] = '\n' || (i + 2 < n && s.[i + 1] = '\r' && s.[i + 2] = '\n'))
    then true
    else go (i + 1)
  in
  go 0

let read_head client =
  let chunk = Bytes.create 4096 in
  let b = Buffer.create 256 in
  let rec go () =
    if Buffer.length b < 65536 && not (has_terminator (Buffer.contents b))
    then begin
      match Unix.read client chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
      | exception Unix.Unix_error _ -> ()
    end
  in
  go ();
  Buffer.contents b

let write_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      match Unix.write fd bytes off (n - off) with
      | 0 -> ()
      | w -> go (off + w)
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body

(* how long one client may stall a read or a write: the accept loop
   serves one connection at a time, so a client that never sends (or
   never reads) must not hold up the next scrape or [stop] *)
let client_timeout = 1.0

let handle render client =
  Unix.setsockopt_float client Unix.SO_RCVTIMEO client_timeout;
  Unix.setsockopt_float client Unix.SO_SNDTIMEO client_timeout;
  let head = read_head client in
  let request_line =
    match String.index_opt head '\n' with
    | Some i -> String.trim (String.sub head 0 i)
    | None -> String.trim head
  in
  let reply =
    match String.split_on_char ' ' request_line with
    | [ "GET"; "/metrics"; _ ] | [ "GET"; "/metrics" ] ->
      response ~status:"200 OK" ~content_type:Obs.Openmetrics.content_type
        (render ())
    | "GET" :: _ ->
      response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n"
    | _ ->
      response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
        "only GET\n"
  in
  write_all client reply

let rec accept_loop sock stopping render =
  match Unix.accept sock with
  | exception _ ->
    (* EBADF/EINTR on shutdown, or a transient accept failure — the
       delay keeps a persistent failure from spinning hot *)
    if not (Atomic.get stopping) then begin
      Thread.delay 0.01;
      accept_loop sock stopping render
    end
  | client, _ ->
    if Atomic.get stopping then (try Unix.close client with _ -> ())
    else begin
      (try handle render client with _ -> ());
      (try Unix.close client with _ -> ());
      accept_loop sock stopping render
    end

let start ?(addr = "127.0.0.1") ~port ~render () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stopping = Atomic.make false in
  let thread = Thread.create (fun () -> accept_loop sock stopping render) () in
  { sock; port; thread; stopping }

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* wake a blocking accept by connecting to ourselves, then join *)
    (try
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close s with _ -> ())
         (fun () ->
           Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)))
     with _ -> ());
    Thread.join t.thread;
    try Unix.close t.sock with _ -> ()
  end
