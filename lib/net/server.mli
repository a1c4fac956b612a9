(** A TCP front end for a line handler: the {!Reactor}-based server that
    puts {!Psph_engine.Serve.handle_line} behind a socket.

    Accepted connections are multiplexed by a small fixed pool of
    event-loop threads ([reactor_threads]) instead of one thread per
    socket.  Each completed {!Frame} of at most 4 KiB runs the
    handler's front half on the loop ({!Psph_engine.Serve.respond}): a
    [Now] answer — a warm cache hit, [models]/[stats]/[metrics], an
    error — is queued and flushed in the same loop iteration.  Only a
    [Later] back half, or a longer frame whole, is handed to [dispatch]
    (in production {!Psph_engine.Engine.dispatch}, the engine's Domain
    pool), so loops never block on work that grows with the request,
    and a warm hit never waits behind a miss.

    {b Wire protocol} (full specification in docs/NET.md, "Wire
    protocol v2"): a connection starts in JSON-lines mode with strictly
    ordered responses — byte-compatible with the v1 server, so old
    clients work unchanged.  A client may send
    [{"op":"hello","version":2,"codec":"binary","pipeline":true}] as a
    normal request; the server answers with what it granted, and from
    the next frame on the connection speaks the granted codec with
    responses keyed by request id and allowed out of order.  The binary
    codec ({!Codec}) is only offered when [bin_handler] is installed;
    pipelining and codec are negotiated, never assumed.

    Robustness mirrors v1: garbage framing, death mid-frame and the
    oversized-frame guard are answered (when possible) and closed —
    the server never crashes and other connections never notice.
    [max_conns] bounds the pool; excess connections wait in the kernel
    backlog.  [deadline_s] stays cooperative: a request whose handler
    ran past it is answered with a deadline error instead of its (late)
    result.  Shutdown is graceful: {!request_stop} stops accepting,
    in-flight requests complete and their responses are flushed, then
    {!serve} returns so the caller can flush the engine's store.

    Observability ([net.server.*] plus the reactor's [net.reactor.*],
    catalogued in docs/NET.md): v1's counters and latency histogram,
    plus [hello] (negotiations), [binary_requests], [dispatched]
    (deferred halves sent to [dispatch]) and the gauges [inflight]
    (deferred halves not yet answered) and [held] (responses waiting
    for their turn on ordered connections).  JSON requests still re-root
    their handler span under the request's ["span_parent"] field, so
    loopback traces keep nesting [net.client.request -> serve.request]
    across the socket. *)

type handler = string -> Psph_engine.Serve.step
(** A request's front half, run on an event loop; it must do bounded
    work and return [Later] for the rest.  Neither half may raise
    ({!Psph_engine.Serve.respond} guarantees this); a raise is caught
    and answered as an internal error, but indicates a handler bug. *)

val deferred : (string -> string) -> handler
(** A handler that answers every request in its back half — for
    handlers that block on I/O of their own, like {!Router.route}. *)

type t

val listen :
  ?metrics:string ->
  ?backlog:int ->
  ?max_conns:int ->
  ?deadline_s:float ->
  ?max_frame:int ->
  ?reactor_threads:int ->
  ?bin_handler:handler ->
  ?dispatch:((unit -> unit) -> unit) ->
  handler:handler ->
  Addr.t ->
  (t, string) result
(** Bind and listen ([SO_REUSEADDR] set; port 0 lets the kernel pick —
    read it back with {!port}).  [metrics] prefixes the metric names
    (default ["net.server"]).  [max_conns] defaults to 64,
    [reactor_threads] to 2.  [bin_handler] (typically
    [Codec.respond ~json:handler engine]) enables the binary codec at
    hello; without it binary requests are refused at negotiation.
    [dispatch] runs the [Later] halves off the event loops (typically
    {!Psph_engine.Engine.dispatch}); omitted, they run inline on the
    loop too.  [deadline_s] is checked against the time the two halves
    ran, not counting the wait for a worker. *)

val port : t -> int

val serve : t -> unit
(** Run the accept loop in the calling thread until {!request_stop},
    then drain: every in-flight request completes, its response is
    flushed, every connection closes.  Never raises. *)

val start : t -> unit
(** {!serve} on a background thread. *)

val request_stop : t -> unit
(** Flag the server as stopping and wake the accept loop.  Returns
    immediately; safe to call from a signal handler or another thread.
    Idempotent. *)

val stop : t -> unit
(** {!request_stop}, then wait until {!serve} has drained and returned. *)

val threaded_dispatch : ?max_threads:int -> unit -> (unit -> unit) -> unit
(** A [dispatch] for handlers that block on downstream I/O of their own
    (e.g. {!Router.route} fanning out to backends): runs each job on a
    fresh thread up to [max_threads] (default 256) concurrently, inline
    beyond that — overload degrades to backpressure on the event loop
    rather than unbounded thread creation. *)
