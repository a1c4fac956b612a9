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

val handle_line : Engine.t -> string -> string
(** Process one request line, returning the response line (no trailing
    newline).  Never raises.  This is the transport-independent core:
    {!run} drives it from stdio and [Psph_net.Server] drives the same
    function over TCP (see docs/NET.md). *)

val run : Engine.t -> in_channel -> out_channel -> unit
(** Serve until EOF (responses flushed per line), then {!Engine.flush}. *)
