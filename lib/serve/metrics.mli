(** A minimal [/metrics] exposition endpoint: one background thread
    accepting plain-HTTP GETs on a TCP socket and answering
    [GET /metrics] with the text produced by a caller-supplied render
    function (normally {!Obs.Openmetrics.render} composed with engine
    gauges). Any other path gets a 404; every connection is served and
    closed ([Connection: close]). Connections are served one at a time,
    and each read or write of a client times out after a second, so a
    client that connects and stalls delays the next scrape and {!stop}
    by at most that long.

    The server is a [Thread] (not a domain): exposition is IO-bound
    and must not compete with the pool domains for cores. Rendering
    runs on the server thread, so the render function must be
    thread-safe — the [Obs] registries are. *)

type t

(** Start listening on [addr]:[port] (defaults: loopback). [port = 0]
    binds an ephemeral port — read the actual one with {!port}.
    @raise Unix.Unix_error when the address cannot be bound. *)
val start : ?addr:string -> port:int -> render:(unit -> string) -> unit -> t

(** The bound port (useful after [port = 0]). *)
val port : t -> int

(** Stop accepting, join the thread, close the socket (idempotent). *)
val stop : t -> unit
