(** Consistent-hash routing of serve requests across N backends, with
    an R-replicated memo tier on top (see docs/NET.md "Replication &
    rebalance").

    The router is itself a serve-protocol peer: put {!route} behind a
    {!Server} and clients talk to it exactly as they would to a single
    backend.  A request line is parsed once.  Hot queries
    ({!Psph_engine.Query.t}) route as {e members}: a single query is a
    batch of one, and an all-hot [batch] fans out member by member.
    Each member is forwarded as a typed value to a backend chosen by
    consistent hashing ({!Ring}) on its {b shard key}
    ({!Psph_engine.Query.shard_key}: a facet query's content address, a
    model or psph spec's normalized encoding — whatever op spells it),
    and its reply comes back typed and is rendered once.  Everything
    else ([stats], mixed batches, ...) has no affinity and is forwarded
    verbatim, round-robin over live backends.

    {b Replication.}  With [replication = R > 1] a key's {e owner set}
    is the first R distinct backends of its ring walk.  A cache miss
    answered by one owner is pushed to the others as an async
    [populate] hint carrying the finished answer, so hot keys converge
    to R warm copies; a dead primary's reads fail over — in ring
    order, which is exactly owner order — onto those warm replicas.
    Every member served by a non-primary owner is counted
    ([net.replica.fallback_read], and [fallback_hit] when it was a
    cache hit).

    {b Membership.}  The ring, backend array and an {e epoch} form one
    immutable snapshot; every request captures the snapshot once and
    routes entirely under it, so requests in flight across a [join]
    stay consistent (the ring-epoch handshake).  {!add_backend} — or
    the [{"op":"join","backend":"H:P"}] wire op — publishes the next
    epoch and migrates {e only} the key ranges the new backend takes
    ownership of, streamed from the old backends' snapshots and pushed
    as populate batches.  [{"op":"cluster"}] reports epoch, replication
    factor and per-backend liveness.

    {b Error contract.}  A request (or member) tries backends in ring
    order, live ones first: a retryable failure marks the backend dead
    and fails over to the next, counted once per request or member in
    [net.router.failover]; a fatal protocol error is request-specific,
    so it is answered as [{"ok":false,"error":...}] without touching
    backend health; when nothing answers, the router degrades to
    [{"ok":false,"error":"no backend"}] (id echoed) — and while the
    health prober is running the degraded answer carries
    ["retry_after_ms"] (the probe period), because the outage is then a
    transient the prober is actively working to clear.  A background
    health checker probes every backend with [{"op":"models"}] and
    revives dead ones.

    Observability ([net.router.*]): request/forwarded/failover/
    no_backend counters, backends-up and epoch gauges, per-request
    latency, a [net.router.request] span per routed request,
    backend_up/down/join and rebalance events, and the
    [net.router.replica.*] family from {!Replica}. *)

type t

val create :
  ?metrics:string ->
  ?vnodes:int ->
  ?replication:int ->
  ?timeout_ms:int ->
  ?retries:int ->
  ?check_period_ms:int ->
  ?max_frame:int ->
  ?codec:[ `Json | `Binary ] ->
  ?pipeline_depth:int ->
  Addr.t list ->
  t
(** No I/O; backends are assumed alive until a probe or request says
    otherwise.  [vnodes] (default 64) virtual points per backend on the
    ring; [replication] (default 1, clamped to the backend count per
    request) replicas per key; [timeout_ms]/[retries] configure the per-backend clients (retries
    default 1 — the ring-level failover is the real retry);
    [check_period_ms] (default 1000) spaces health probes.  [codec]
    (default [`Json]) and [pipeline_depth] (default 16) configure the
    backend links: protocol v2 is negotiated per connection, so v1
    backends quietly get sequential JSON either way (see {!Client}).
    @raise Invalid_argument on an empty or duplicate backend list. *)

val shard_key : string -> string option
(** The shard key of a request line, [None] when it is not a hot query
    (batch/stats/... or unparseable). *)

val preference : t -> string -> int list
(** Backend indexes in ring (failover) order for a request line under
    the current epoch — the first {e R} entries are the owner set.
    Pure ring arithmetic — exposed for tests; keyless lines rotate. *)

val backends : t -> (Addr.t * bool) list
(** Address and liveness of each backend, in index order. *)

val epoch : t -> int
(** The current membership epoch (0 at creation, +1 per join). *)

val add_backend :
  ?rebalance:bool -> t -> Addr.t -> (int * Addr.t option, string) result
(** Join a backend: publish the next ring epoch and (unless
    [~rebalance:false]) migrate — on a background thread — the key
    ranges the new backend now owns.  Returns the new epoch and the
    joining node's warm peer (the backend that owned the start of its
    key range; [None] on a one-node ring).  [Error] if the address is
    already a member. *)

val route : t -> string -> string
(** Forward one request line, failing over as needed; the degraded
    answer if no backend responds.  Never raises — this is the
    {!Server.handler} of [psc route].  [cluster]/[join] are answered by
    the router itself (see above).

    A [batch] whose members are all hot queries {b fans out}: members are grouped
    by their preferred backend (cache affinity preserved per member),
    each group rides that backend's pipelined connection, groups run in
    parallel, and failover happens per member.  The reassembled
    response is byte-identical to a single backend's batch answer;
    members are answered [{"ok":false,"error":"no backend"}] in place
    when nothing will take them.  Batches with other member ops keep
    the forward-whole behavior.  Fanned batches count in
    [net.router.fanout]. *)

val start_health_checks : t -> unit
(** Spawn the background prober (idempotent). *)

val stop : t -> unit
(** Stop the prober and the populate worker, and close every backend
    connection. *)
