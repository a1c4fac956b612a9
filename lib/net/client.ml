(* Reconnecting request/response client with optional pipelining and
   binary codec (wire protocol v2).

   Every request, from a single [request] to a thousand-line [pipeline],
   runs through one state machine ([drive]).  Requests whose responses
   echo a transport id — hot queries on a v2 connection — ride a window
   of up to [pipeline_depth] in flight; everything else is a "barrier":
   the window drains, it flies alone, and its response is matched by
   position.  A connection's mode comes from a hello frame on fresh
   connections: V2 binary (hot queries as {!Codec} bytes — or as
   escape-tagged JSON with an injected id when the layout cannot carry
   them — everything else escape-tagged JSON), V2 json (hot queries with
   injected ids), and V1 (a plain client, which sends no hello, or an
   old server).  V1 is the driver with an empty window: every request is
   a barrier sent verbatim, byte-identical to the classic client.

   Each flight gets [timeout_ms] of budget (nonblocking connect + select,
   SO_SNDTIMEO / SO_RCVTIMEO).  A barrier that fails discards the socket,
   because on a positional exchange a late response would be mistaken
   for the answer to the next request.  Windowed requests change exactly
   that rule: the id makes a late response identifiable — and therefore
   harmless.  A timed-out windowed request keeps the connection: its id
   moves to the connection's stale set, the retry flies with a fresh id,
   and when the orphaned response eventually lands it is dropped and
   counted ([net.client.stale_response]) instead of poisoning the
   stream.  The stale set is bounded: entries age out after a TTL of a
   few timeouts (a server that never answered by then never will), and
   a hard cap evicts the oldest debt first — safe because correctness
   never depends on stale membership: every windowed id is >= tid_base,
   so a window miss with a transport-range id is a late response by
   construction, whatever the set remembers.  Only transport-level
   failures (torn frames, oversized frames, dead sockets, barrier
   timeouts) tear the connection down. *)

open Psph_obs
module Query = Psph_engine.Query

type error = Timeout | Connection of string | Protocol of string

let is_retryable = function Timeout | Connection _ -> true | Protocol _ -> false

let error_message = function
  | Timeout -> "request timed out"
  | Connection m -> m
  | Protocol m -> "protocol error: " ^ m

exception Err of error

type metrics = {
  requests : Obs.counter;
  errors : Obs.counter;
  retries : Obs.counter;
  reconnects : Obs.counter;
  timeouts : Obs.counter;
  pipelined : Obs.counter;
  stale : Obs.counter;
  request_s : Obs.histogram;
  span_name : string;
  pipeline_span : string;
}

(* how a fresh connection turned out after the hello exchange *)
type nego = V1 | V2 of { binary : bool }

type conn = {
  fd : Unix.file_descr;
  reader : Frame.reader;  (* persistent: frames can span reads *)
  rbuf : Bytes.t;  (* read scratch *)
  out : Buffer.t;  (* frames encoded but not yet sent *)
  stale : (int, float) Hashtbl.t;  (* timed-out id -> expiry of the debt *)
  mutable nego : nego option;
}

type t = {
  addr : Addr.t;
  timeout_s : float;
  max_retries : int;
  backoff_s : float;
  max_backoff_s : float;
  max_frame : int;
  codec : [ `Json | `Binary ];
  pipeline_depth : int;
  rng : Random.State.t;
  lock : Mutex.t;
  mutable conn : conn option;
  mutable tid : int;
  m : metrics;
}

(* a write to a peer-closed socket must fail with EPIPE (handled as a
   retryable Connection error below), not deliver SIGPIPE, whose default
   action kills the whole process *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

(* transport ids start far above any plausible user-chosen integer id,
   so a barrier response carrying a user id can never be mistaken for a
   late windowed response (see the barrier-matching rule in [pump]).
   A caller who does pick an id >= tid_base gets that response dropped
   as stale and the barrier times out — documented in the mli. *)
let tid_base = 0x40000000

(* bound on timed-out ids still owed a late response: beyond the cap the
   oldest debts are forgotten (their late responses will still be
   dropped by the tid_base rule, just counted without a table hit) *)
let stale_cap = 1024

(* a response this late is never coming; a few timeouts of grace keeps
   slow-but-alive servers from leaking entries under tiny timeouts *)
let stale_ttl t = Float.max (8. *. t.timeout_s) 0.5

let create ?(metrics = "net.client") ?(timeout_ms = 5000) ?(retries = 3)
    ?(backoff_ms = 50) ?(max_backoff_ms = 2000)
    ?(max_frame = Frame.max_frame_default) ?(codec = `Json)
    ?(pipeline_depth = 1) addr =
  Lazy.force ignore_sigpipe;
  {
    addr;
    timeout_s = float_of_int timeout_ms /. 1000.;
    max_retries = max 0 retries;
    backoff_s = float_of_int backoff_ms /. 1000.;
    max_backoff_s = float_of_int max_backoff_ms /. 1000.;
    max_frame;
    codec;
    pipeline_depth = max 1 pipeline_depth;
    rng = Random.State.make_self_init ();
    lock = Mutex.create ();
    conn = None;
    tid = tid_base;
    m =
      {
        requests = Obs.counter (metrics ^ ".requests");
        errors = Obs.counter (metrics ^ ".errors");
        retries = Obs.counter (metrics ^ ".retries");
        reconnects = Obs.counter (metrics ^ ".reconnects");
        timeouts = Obs.counter (metrics ^ ".timeouts");
        pipelined = Obs.counter (metrics ^ ".pipelined");
        stale = Obs.counter (metrics ^ ".stale_response");
        request_s = Obs.histogram (metrics ^ ".request_s");
        span_name = metrics ^ ".request";
        pipeline_span = metrics ^ ".pipeline";
      };
  }

let addr t = t.addr

let pending_stale t =
  Mutex.lock t.lock;
  let n = match t.conn with Some c -> Hashtbl.length c.stale | None -> 0 in
  Mutex.unlock t.lock;
  n

let next_tid t =
  let v = t.tid in
  t.tid <- (if v >= 0x7FFFFFFF then tid_base else v + 1);
  v

let disconnect t =
  match t.conn with
  | None -> ()
  | Some c ->
      t.conn <- None;
      (try Unix.close c.fd with _ -> ())

let close t =
  Mutex.lock t.lock;
  disconnect t;
  Mutex.unlock t.lock

let connection fmt = Printf.ksprintf (fun m -> raise (Err (Connection m))) fmt

(* the peer (or a chaos proxy between us and it) killed the connection
   under us mid-request.  Named explicitly rather than left to the
   catch-all so the taxonomy is stable — these are the errors a reset
   storm surfaces constantly — and kept retryable: a fresh connection
   may well land on a healthy peer. *)
let reset_name = function
  | Unix.ECONNRESET -> Some "ECONNRESET"
  | Unix.EPIPE -> Some "EPIPE"
  | Unix.ECONNABORTED -> Some "ECONNABORTED"
  | _ -> None

let connection_io what e =
  match reset_name e with
  | Some name -> connection "connection reset by peer mid-request (%s)" name
  | None -> connection "%s failed: %s" what (Unix.error_message e)

let connect_with_timeout t deadline =
  let sockaddr =
    match Addr.resolve t.addr with
    | Ok sa -> sa
    | Error m -> raise (Err (Connection m))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.set_nonblock fd;
    (match Unix.connect fd sockaddr with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
      -> (
        let budget = deadline -. Obs.monotonic () in
        if budget <= 0. then raise (Err Timeout);
        match Unix.select [] [ fd ] [] budget with
        | _, [], _ -> raise (Err Timeout)
        | _ -> (
            match Unix.getsockopt_error fd with
            | None -> ()
            | Some e ->
                connection "connect to %s: %s" (Addr.to_string t.addr)
                  (Unix.error_message e)))
    | exception Unix.Unix_error (e, _, _) ->
        connection "connect to %s: %s" (Addr.to_string t.addr)
          (Unix.error_message e));
    Unix.clear_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    fd
  with e ->
    (try Unix.close fd with _ -> ());
    raise e

let ensure_connected t deadline =
  match t.conn with
  | Some c -> c
  | None ->
      Obs.incr t.m.reconnects;
      let fd = connect_with_timeout t deadline in
      let c =
        {
          fd;
          reader = Frame.reader ~max_frame:t.max_frame ();
          rbuf = Bytes.create 65536;
          out = Buffer.create 4096;
          stale = Hashtbl.create 8;
          nego = None;
        }
      in
      t.conn <- Some c;
      c

(* setsockopt_float truncates to whole microseconds, and a zero timeout
   means "no timeout": keep a floor so a sub-microsecond residual budget
   can never turn a should-be-timeout into an indefinite block *)
let set_timeout fd opt budget =
  try Unix.setsockopt_float fd opt (Float.max budget 0.001) with _ -> ()

(* the attempt deadline bounds the send too: a peer that accepts the
   connection but stops reading while our socket buffer is full must
   surface as Timeout, not stall past the budget *)
let send_all fd s deadline =
  let len = String.length s in
  let rec go off =
    if off < len then begin
      let budget = deadline -. Obs.monotonic () in
      if budget <= 0. then raise (Err Timeout);
      set_timeout fd Unix.SO_SNDTIMEO budget;
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise (Err Timeout)
      | exception Unix.Unix_error (e, _, _) -> connection_io "send" e
    end
  in
  go 0

(* one read into the connection's frame reader, waiting at most
   [budget] seconds; [false] when the wait ran out.  Any failure
   discards the whole connection (reader included), so a half-frame can
   never leak into the next exchange. *)
let read_some c budget =
  set_timeout c.fd Unix.SO_RCVTIMEO budget;
  match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
  | 0 -> connection "connection closed by server (torn frame)"
  | n -> (
      match Frame.feed c.reader c.rbuf 0 n with
      | () -> true
      | exception Frame.Oversized len ->
          raise
            (Err
               (Protocol
                  (Printf.sprintf "oversized frame from server (%d bytes)" len))))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error (e, _, _) -> connection_io "receive" e

(* the next whole payload, or [Timeout] at the deadline *)
let rec recv_one c deadline =
  match Frame.next c.reader with
  | Some payload -> payload
  | None ->
      let budget = deadline -. Obs.monotonic () in
      if budget <= 0. || not (read_some c budget) then raise (Err Timeout);
      recv_one c deadline

(* carry the ambient span id across the wire (only while tracing: the
   rewrite costs a parse, and span ids only mean something to a trace) *)
let with_span_parent line =
  match Obs.current_span_id () with
  | Some id when Obs.current_sink () <> Obs.Null -> (
      match Jsonl.of_string_opt line with
      | Some (Jsonl.Obj fields) ->
          Jsonl.to_string (Jsonl.Obj (fields @ [ ("span_parent", Jsonl.int id) ]))
      | _ -> line)
  | _ -> line

let backoff_delay t n =
  let cap = Float.min t.max_backoff_s (t.backoff_s *. (2. ** float_of_int n)) in
  Random.State.float t.rng cap

(* ------------------------------------------------------------------ *)
(* negotiation                                                         *)
(* ------------------------------------------------------------------ *)

let hello_line t =
  Printf.sprintf {|{"op":"hello","version":2,"codec":%S,"pipeline":true}|}
    (match t.codec with `Binary -> "binary" | `Json -> "json")

let negotiate t c deadline =
  send_all c.fd (Frame.encode ~max_frame:t.max_frame (hello_line t)) deadline;
  let resp = recv_one c deadline in
  let nego =
    match Jsonl.of_string_opt resp with
    | Some o ->
        let ok = Jsonl.member "ok" o = Some (Jsonl.Bool true) in
        let version = Option.bind (Jsonl.member "version" o) Jsonl.to_int_opt in
        let pipelined = Jsonl.member "pipeline" o = Some (Jsonl.Bool true) in
        if ok && version = Some 2 && pipelined then
          V2
            {
              binary =
                Option.bind (Jsonl.member "codec" o) Jsonl.to_string_opt
                = Some "binary";
            }
        else V1 (* an old server answers hello with an unknown-op error *)
    | None -> V1
  in
  c.nego <- Some nego;
  nego

(* connect if needed, negotiate if the connection is fresh.  Only a
   client that asked for the binary codec or a window sends a hello; a
   plain one (json codec, depth 1) stays byte-for-byte the v1 client. *)
let ensure_nego t =
  let deadline = Obs.monotonic () +. t.timeout_s in
  let c = ensure_connected t deadline in
  match c.nego with
  | Some n -> (c, n)
  | None ->
      if t.codec = `Binary || t.pipeline_depth > 1 then (c, negotiate t c deadline)
      else begin
        c.nego <- Some V1;
        (c, V1)
      end

(* ------------------------------------------------------------------ *)
(* the driver                                                          *)
(* ------------------------------------------------------------------ *)

(* A serve response echoes the request's id as its first member, so a
   windowed response starts [{"id":<digits>] — read straight off the
   bytes, no JSON parse.  Returns the id and the offset just past it. *)
let leading_id line =
  let prefix = {|{"id":|} in
  let p = String.length prefix in
  let len = String.length line in
  if not (String.starts_with ~prefix line) then None
  else begin
    let e = ref p in
    while !e < len && !e - p < 18 && line.[!e] >= '0' && line.[!e] <= '9' do
      incr e
    done;
    if !e > p && !e < len && (line.[!e] = ',' || line.[!e] = '}') then
      Some (int_of_string (String.sub line p (!e - p)), !e)
    else None
  end

(* one request through the driver.  [query] marks it windowable — a hot
   query, whose response is guaranteed to echo the transport id (results
   and errors both do); everything else is a barrier.  [bin] is its
   pre-encoded binary request (id 0, stamped per send), so the
   per-flight cost on a binary connection is a copy, not an encode;
   [None] when the codec cannot carry the query (a non-auto solver mode,
   an out-of-range field), which then rides the JSON escape.  [jline]
   is what the item sends when it flies alone (v1, barriers).  All three
   are lazy: a connection only builds what it speaks, so a v1 connection
   never parses the caller's line. *)
type ditem = {
  jline : string Lazy.t;
  query : Query.t option Lazy.t;
  bin : string option Lazy.t;
  mutable attempts : int;  (* failed attempts so far *)
}

(* how a resolved response is represented, so [pipeline] and
   [query_many] can each convert without an extra round trip through the
   other's format *)
type rv =
  | Rbin of Codec.reply  (* binary reply, ids already transport-level *)
  | Rraw of string  (* verbatim response line (barrier or v1) *)
  | Rinj of string  (* JSON response carrying an injected transport id *)

let as_error = function Err e -> e | e -> Connection (Printexc.to_string e)

let drive ?on_latency t (items : ditem array) =
  let n = Array.length items in
  let results : (rv, error) result option array = Array.make n None in
  let unresolved () = Array.exists Option.is_none results in
  (* consecutive failed sessions since the last answer: the backoff
     exponent *)
  let streak = ref 0 in
  let resolve ?latency idx r =
    if results.(idx) = None then begin
      results.(idx) <- Some r;
      match r with
      | Ok _ ->
          streak := 0;
          Option.iter
            (fun l ->
              Obs.observe t.m.request_s l;
              match on_latency with Some f -> f idx l | None -> ())
            latency
      | Error _ -> Obs.incr t.m.errors
    end
  in
  (* count a failed attempt against an item; resolve it once the retry
     budget is spent or the failure is fatal *)
  let bump e idx =
    let it = items.(idx) in
    it.attempts <- it.attempts + 1;
    if (not (is_retryable e)) || it.attempts > t.max_retries then
      resolve idx (Error e)
    else Obs.incr t.m.retries
  in
  (* the connection is unusable: drop it, charge every request that was
     on it an attempt, and back off before the survivors re-fly *)
  let fail e on_conn =
    disconnect t;
    if e = Timeout then Obs.incr t.m.timeouts;
    List.iter (bump e) on_conn;
    if unresolved () then begin
      Thread.delay (backoff_delay t !streak);
      incr streak
    end
  in
  let pending = Queue.create () in

  (* The pump.  Windowed hot queries keep up to [depth] in flight, keyed
     by transport id; barriers fly alone and are matched by position.  A
     v1 connection is the pump with an empty window: every item is a
     barrier, sent verbatim, and its response is taken whatever id it
     carries — a v1 failure always tears the connection down, so no late
     response can be waiting on it. *)
  let pump c nego =
    let depth, binary =
      match nego with V1 -> (0, false) | V2 { binary } -> (t.pipeline_depth, binary)
    in
    (* tid -> (item index, sent_at, deadline) *)
    let window = Hashtbl.create (2 * depth) in
    let barrier = ref None in
    let out = c.out in
    let inflight () =
      Hashtbl.length window + match !barrier with Some _ -> 1 | None -> 0
    in
    let encode_windowable it q tid =
      match Lazy.force it.bin with
      | Some tpl when binary -> Codec.request_with_id tpl tid
      | _ ->
          let line = Query.to_json ~id:(Jsonl.int tid) q in
          if binary then Codec.escape_json line else line
    in
    let encode_barrier it =
      let line = Lazy.force it.jline in
      match nego with
      | V1 -> with_span_parent line
      | V2 { binary = true } -> Codec.escape_json line
      | V2 { binary = false } -> line
    in
    let fill () =
      let again = ref true in
      while !again && not (Queue.is_empty pending) do
        let idx = Queue.peek pending in
        if results.(idx) <> None then ignore (Queue.pop pending)
        else begin
          let it = items.(idx) in
          match if depth = 0 then None else Lazy.force it.query with
          | Some q ->
              if !barrier = None && Hashtbl.length window < depth then begin
                ignore (Queue.pop pending);
                let tid = next_tid t in
                let now = Obs.monotonic () in
                Frame.encode_into ~max_frame:t.max_frame out
                  (encode_windowable it q tid);
                Hashtbl.replace window tid (idx, now, now +. t.timeout_s);
                Obs.incr t.m.pipelined
              end
              else again := false
          | None ->
              (* barriers fly alone: their responses carry nothing to
                 match on, so they must be the only frame in flight *)
              if inflight () = 0 then begin
                ignore (Queue.pop pending);
                let now = Obs.monotonic () in
                Frame.encode_into ~max_frame:t.max_frame out
                  (encode_barrier it);
                barrier := Some (idx, now, now +. t.timeout_s)
              end;
              again := false
        end
      done
    in
    let flush () =
      if Buffer.length out > 0 then begin
        let data = Buffer.contents out in
        Buffer.clear out;
        send_all c.fd data (Obs.monotonic () +. t.timeout_s)
      end
    in
    let resolve_window tid idx sent v =
      Hashtbl.remove window tid;
      resolve ~latency:(Obs.monotonic () -. sent) idx (Ok v)
    in
    let drop_stale id_opt =
      (match id_opt with Some i -> Hashtbl.remove c.stale i | None -> ());
      Obs.incr t.m.stale
    in
    let handle_payload payload =
      match if binary then Codec.unescape_json payload else Some payload with
      | None -> (
          match Codec.decode_reply payload with
          | Error m -> raise (Err (Protocol ("undecodable reply: " ^ m)))
          | Ok r -> (
              let id = match r with Codec.Result { id; _ } | Codec.Failed { id; _ } -> id in
              match Hashtbl.find_opt window id with
              | Some (idx, sent, _) -> resolve_window id idx sent (Rbin r)
              | None -> drop_stale (Some id)))
      | Some line -> (
          let id = if depth = 0 then None else Option.map fst (leading_id line) in
          match id with
          | Some i when Hashtbl.mem window i ->
              let idx, sent, _ = Hashtbl.find window i in
              resolve_window i idx sent (Rinj line)
          | _ -> (
              (* a frame that matches no window slot answers the barrier
                 — unless its id names a request we timed out, in which
                 case it is that request's late response *)
              match !barrier with
              | Some (idx, sent, _)
                when (match id with Some i -> i < tid_base | None -> true) ->
                  barrier := None;
                  resolve ~latency:(Obs.monotonic () -. sent) idx
                    (Ok (Rraw line))
              | _ -> drop_stale id))
    in
    let nearest_deadline () =
      let d =
        Hashtbl.fold
          (fun _ (_, _, dl) acc -> Float.min dl acc)
          window infinity
      in
      match !barrier with Some (_, _, dl) -> Float.min dl d | None -> d
    in
    (* expire overdue window slots in place: the id goes to the stale
       set (stamped with its own expiry), the retry gets a fresh id, the
       connection lives on.  An overdue barrier can only be resolved by
       tearing the connection down (its response is matched
       positionally). *)
    let expire () =
      let now = Obs.monotonic () in
      (match !barrier with
      | Some (_, _, dl) when now >= dl -> raise (Err Timeout)
      | _ -> ());
      let dead =
        Hashtbl.fold
          (fun tid (idx, _, dl) acc ->
            if now >= dl then (tid, idx) :: acc else acc)
          window []
      in
      List.iter
        (fun (tid, idx) ->
          Hashtbl.remove window tid;
          Hashtbl.replace c.stale tid (now +. stale_ttl t);
          Obs.incr t.m.timeouts;
          bump Timeout idx;
          if results.(idx) = None then Queue.add idx pending)
        dead;
      (* age out debts whose response is never coming... *)
      let expired =
        Hashtbl.fold
          (fun tid dl acc -> if now >= dl then tid :: acc else acc)
          c.stale []
      in
      List.iter (Hashtbl.remove c.stale) expired;
      (* ...and under a pathological server, forget the oldest debts
         rather than tearing down a connection that still works: the
         tid_base rule keeps their late responses harmless anyway *)
      while Hashtbl.length c.stale > stale_cap do
        let oldest =
          Hashtbl.fold
            (fun tid dl acc ->
              match acc with
              | Some (_, best) when best <= dl -> acc
              | _ -> Some (tid, dl))
            c.stale None
        in
        match oldest with
        | Some (tid, _) -> Hashtbl.remove c.stale tid
        | None -> ()
      done
    in
    let rec go () =
      fill ();
      flush ();
      let rec drain () =
        match Frame.next c.reader with
        | Some p ->
            handle_payload p;
            fill ();
            drain ()
        | None -> ()
      in
      drain ();
      flush ();
      if inflight () > 0 then begin
        let now = Obs.monotonic () in
        let dl = nearest_deadline () in
        if dl <= now || not (read_some c (dl -. now)) then expire ();
        go ()
      end
      else if not (Queue.is_empty pending) then go ()
    in
    try go ()
    with e ->
      (* transport-level failure: fatal errors resolve every request on
         the connection; retryable ones cost each an attempt *)
      let on_conn = Hashtbl.fold (fun _ (idx, _, _) acc -> idx :: acc) window [] in
      fail (as_error e)
        (match !barrier with Some (idx, _, _) -> idx :: on_conn | None -> on_conn)
  in

  let rec session () =
    if unresolved () then begin
      Queue.clear pending;
      Array.iteri (fun i r -> if r = None then Queue.add i pending) results;
      (match ensure_nego t with
      | c, nego -> pump c nego
      | exception e ->
          (* no negotiated connection: everyone unfinished pays *)
          fail (as_error e) (List.of_seq (Queue.to_seq pending)));
      session ()
    end
  in
  session ();
  Array.map
    (function
      | Some r -> r
      | None -> Error (Connection "internal: request left unresolved"))
    results

(* ------------------------------------------------------------------ *)
(* public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let encode_bin q =
  match Codec.encode_query ~id:0 q with
  | tpl -> Some tpl
  | exception Invalid_argument _ -> None

let item_of_query ~jline q =
  { jline; query = Lazy.from_val (Some q); bin = lazy (encode_bin q); attempts = 0 }

(* the one parse of a caller's line, made only if the connection asks
   whether the item is a hot query: one is windowed, anything else is a
   barrier.  Returns the item and the line's own "id". *)
let item_of_line line =
  let req = lazy (Jsonl.of_string_opt line) in
  let query =
    lazy
      (match Lazy.force req with
      | Some r -> Result.to_option (Query.of_json r)
      | None -> None)
  in
  ( {
      jline = Lazy.from_val line;
      query;
      bin = lazy (Option.bind (Lazy.force query) encode_bin);
      attempts = 0;
    },
    lazy (Option.bind (Lazy.force req) (Jsonl.member "id")) )

(* swap the transport id at the head of a windowed JSON response for the
   caller's own id (or drop it), preserving every other byte *)
let restore_id orig line =
  match leading_id line with
  | None -> line
  | Some (_, e) -> (
      let rest k = String.sub line k (String.length line - k) in
      match orig with
      | Some v -> {|{"id":|} ^ Jsonl.to_string v ^ rest e
      | None -> "{" ^ rest (if line.[e] = ',' then e + 1 else e))

let run_locked ?on_latency ~span t items f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  Obs.incr ~by:(Array.length items) t.m.requests;
  Obs.with_span span (fun sp ->
      let rs = drive ?on_latency t items in
      Obs.set_attr sp "count" (Jsonl.int (Array.length items));
      let attempts = ref 0 in
      Array.iteri
        (fun i r ->
          attempts := !attempts + items.(i).attempts;
          match r with
          | Ok _ -> incr attempts
          | Error e -> Obs.set_attr sp "error" (Jsonl.Str (error_message e)))
        rs;
      Obs.set_attr sp "attempts" (Jsonl.int !attempts);
      Array.to_list (Array.mapi f rs))

(* a resolved response as the bytes a v1 exchange would have produced *)
let response_line orig = function
  | Rraw s -> s
  | Rinj s -> restore_id (Lazy.force orig) s
  | Rbin rep -> Jsonl.to_string (Query.reply_json ?id:(Lazy.force orig) rep)

let pipeline ?on_latency t lines =
  let items, ids = List.split (List.map item_of_line lines) in
  let ids = Array.of_list ids in
  run_locked ?on_latency ~span:t.m.pipeline_span t (Array.of_list items)
    (fun i r -> Result.map (response_line ids.(i)) r)

let query_many ?on_latency t qs =
  let items =
    List.map (fun q -> item_of_query ~jline:(lazy (Query.to_json q)) q) qs
  in
  run_locked ?on_latency ~span:t.m.pipeline_span t (Array.of_list items)
    (fun _ r ->
      match r with
      | Error e -> Error e
      | Ok (Rbin rep) -> Ok rep
      | Ok (Rraw s) | Ok (Rinj s) -> (
          match Query.reply_of_json s with
          | Some rep -> Ok rep
          | None -> Error (Protocol "unparseable response")))

let eval_many ?on_latency t specs =
  query_many ?on_latency t
    (List.map (fun (want, target) -> { Query.want; target; mode = Auto }) specs)

(* one item, one drive, under its own request span *)
let request_item t (it, orig) =
  List.hd
    (run_locked ~span:t.m.span_name t [| it |] (fun _ r ->
         Result.map (response_line orig) r))

let request t line = request_item t (item_of_line line)

let forward t line =
  request_item t
    ( { jline = Lazy.from_val line; query = Lazy.from_val None;
        bin = Lazy.from_val None; attempts = 0 },
      Lazy.from_val None )
