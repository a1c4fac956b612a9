(** The [psc serve] JSON-lines front end.

    One request object per input line, one response object per output
    line.  Ops: the hot queries [betti], [connectivity], [psph] and
    [model-complex] (parsed and answered by {!Query}), [batch] (members
    evaluated in parallel), [models], [stats], [metrics]
    (the full {!Psph_obs.Obs.snapshot_json} of counters, gauges,
    histograms and span totals; [stats] carries the same snapshot in a
    "metrics" field), and the replication pair [snapshot] (page the memo
    cache out in {!Store} line format, [cursor]/[limit] chunked) /
    [populate] (load finished answers in) that cache warming and the
    router's populate hints ride (docs/NET.md).  The full wire protocol
    is specified in docs/ENGINE.md and docs/OBSERVABILITY.md.

    Every request runs in a [serve.request] span (attrs: a process-wide
    request counter and the op label) and is timed into a per-op
    [serve.op.<label>] histogram.  Labels are bounded: the ops above,
    ["other"] for any other op string and ["invalid"] when no op was
    parsed.

    Malformed requests — and any unexpected exception a handler raises —
    produce [{"ok":false,"error":...}] responses, echoing the request's
    ["id"] when one was parsed, and the loop continues. *)

type step =
  | Now of string  (** answered: the response line *)
  | Later of (unit -> string)
      (** the deferred back half, to run on a worker; forcing it
          returns the response line *)

val respond : Engine.t -> string -> step
(** Process one request line in two halves.  The front half runs in
    the call (unless {!front} defers it whole, under a pool of two or
    more worker domains): parse once, then answer [Now] what is bounded
    work — a
    hot query a warm cache slot answers ({!Query.lookup}), [models],
    [stats], [metrics], and every error.  Anything whose cost grows
    with the request — a miss to build and eliminate, a facets query,
    [check] mode, the symbolic tier, [batch], [snapshot], [populate] —
    comes back [Later], carrying the already-parsed request.  Neither
    half raises.  This is the transport-independent core:
    [Psph_net.Server] answers [Now] on its event loop and sends [Later]
    to the engine's pool (see docs/NET.md).  The [serve.request] span
    is opened by the half that answers; the [serve.op.<label>] entry
    is the run time of both halves, not the wait for a worker between
    them. *)

val force : step -> string
(** The response line of a step, running a [Later] in the caller. *)

val front : Engine.t -> (unit -> step) -> step
(** [front engine f] runs the front half [f] in the call when the
    engine has at most one worker domain, and otherwise defers it whole
    ([Later], forcing [f]'s step): an event loop is one domain, so
    answering hits there would serialize work that a wider pool
    spreads.  {!respond} and [Psph_net.Codec.respond] both start with
    it. *)

val handle_line : Engine.t -> string -> string
(** [force (respond engine line)]: the response line (no trailing
    newline) for one request, both halves in the caller.  Never
    raises. *)

val run : Engine.t -> in_channel -> out_channel -> unit
(** Serve until EOF (responses flushed per line), then {!Engine.flush}. *)
