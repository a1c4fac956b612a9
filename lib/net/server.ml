(* The v2 server: a Reactor front end over the line handler.

   Threading model: the accept loop runs in [serve]'s thread and only
   accepts — each descriptor goes straight to the reactor, whose loop
   threads do all socket I/O.  A decoded frame of at most 4 KiB runs
   the handler's front half on the loop.  A [Now] answer (a warm cache
   hit, a fixed op, an error) is queued there and then; the loop flushes
   it in the same select iteration, with no wake-up.  Only a [Later]
   back half — work that grows with the request — is a job for
   [dispatch] (a longer frame is one whole), and its response is queued
   back on the connection from the thread it ran on.
   So the per-connection state below is filled from two threads: the
   loop and a worker.

   Ordering contract: a connection that has not negotiated pipelining
   gets v1 semantics — responses in request order — even though a hit
   answered on the loop can finish before a miss ahead of it, and jobs
   out of order on the dispatch pool.  Each such request takes
   a sequence number at decode time (loop thread, so numbering matches
   arrival order) and [complete] holds finished responses until their
   turn.  Negotiated connections skip the machinery entirely: responses
   carry ids, order is the client's problem (that's the point).

   Stop protocol: [request_stop] must be callable from a SIGINT/SIGTERM
   handler, so it only flips an Atomic and shuts down the listening
   socket (waking a blocked accept).  The drain in [serve] then stops
   reactor reads, waits out in-flight jobs, and lets the reactor flush
   and close every connection. *)

open Psph_obs

type handler = string -> Psph_engine.Serve.step

let deferred f line = Psph_engine.Serve.Later (fun () -> f line)

type metrics = {
  accepted : Obs.counter;
  closed : Obs.counter;
  requests : Obs.counter;
  frame_errors : Obs.counter;  (** oversized/garbage framing from a peer *)
  torn : Obs.counter;  (** peer died mid-frame *)
  deadline_exceeded : Obs.counter;
  active : Obs.gauge;
  request_s : Obs.histogram;
  hello : Obs.counter;  (** protocol negotiations *)
  binary : Obs.counter;  (** binary-codec requests *)
  dispatched : Obs.counter;  (** deferred halves sent to [dispatch] *)
  inflight_g : Obs.gauge;  (** deferred halves not yet answered *)
  held_g : Obs.gauge;  (** responses waiting in [held] tables *)
}

type codec = Cjson | Cbinary

(* per-connection protocol state, hung on the reactor's user slot *)
type cstate = {
  mutable codec : codec;
  mutable pipelined : bool;  (** negotiated: out-of-order responses allowed *)
  mutable next_seq : int;  (** loop thread only: arrival order *)
  slk : Mutex.t;  (** guards the ordered-emit state and inflight below *)
  mutable next_emit : int;
  held : (int, string) Hashtbl.t;  (** finished early, waiting their turn *)
  mutable cinflight : int;
  mutable eof : bool;  (** close once the last in-flight response is out *)
}

type Reactor.user += Conn of cstate

type t = {
  lsock : Unix.file_descr;
  port : int;
  handler : handler;
  bin_handler : handler option;
  dispatch : ((unit -> unit) -> unit) option;
  max_conns : int;
  deadline_s : float option;
  max_frame : int;
  reactor : Reactor.t;
  stopping : bool Atomic.t;
  inflight : int Atomic.t;
  mutable server_thread : Thread.t option;
  m : metrics;
}

let make_metrics prefix =
  {
    accepted = Obs.counter (prefix ^ ".accepted");
    closed = Obs.counter (prefix ^ ".closed");
    requests = Obs.counter (prefix ^ ".requests");
    frame_errors = Obs.counter (prefix ^ ".frame_errors");
    torn = Obs.counter (prefix ^ ".torn");
    deadline_exceeded = Obs.counter (prefix ^ ".deadline_exceeded");
    active = Obs.gauge (prefix ^ ".active");
    request_s = Obs.histogram (prefix ^ ".request_s");
    hello = Obs.counter (prefix ^ ".hello");
    binary = Obs.counter (prefix ^ ".binary_requests");
    dispatched = Obs.counter (prefix ^ ".dispatched");
    inflight_g = Obs.gauge (prefix ^ ".inflight");
    held_g = Obs.gauge (prefix ^ ".held");
  }

(* a response written to a peer that already hung up must fail with
   EPIPE (the reactor drops that connection), not deliver SIGPIPE,
   whose default action kills the whole server *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

(* an error response in the serve wire shape, echoing the request "id"
   when the original line parses far enough to have one *)
let error_line ?orig msg =
  let id = Option.bind (Option.bind orig Jsonl.of_string_opt) (Jsonl.member "id") in
  Jsonl.to_string
    (Psph_engine.Query.reply_json ?id (Failed { id = 0; message = msg }))

let span_parent_of line =
  match Jsonl.of_string_opt line with
  | Some (Jsonl.Obj _ as o) ->
      Option.bind (Jsonl.member "span_parent" o) Jsonl.to_int_opt
  | _ -> None

(* the error shape a codec calls for, addressed to the request the
   [orig] payload holds (binary replies need its id) *)
let error_for codec ?orig msg =
  match codec with
  | Cjson -> error_line ?orig msg
  | Cbinary -> (
      match Option.bind orig Codec.unescape_json with
      | Some inner -> Codec.escape_json (error_line ~orig:inner msg)
      | None ->
          let id =
            match orig with
            | Some p -> Codec.request_id_of_payload p
            | None -> 0
          in
          Codec.encode_reply (Codec.Failed { id; message = msg }))

(* ------------------------------------------------------------------ *)
(* response completion                                                 *)
(* ------------------------------------------------------------------ *)

let frame_of t codec ?orig resp =
  match Frame.encode ~max_frame:t.max_frame resp with
  | bytes -> bytes
  | exception Frame.Oversized n ->
      Obs.incr t.m.frame_errors;
      let msg =
        Printf.sprintf "response too large (%d bytes, max %d)" n t.max_frame
      in
      (try Frame.encode ~max_frame:t.max_frame (error_for codec ?orig msg)
       with Frame.Oversized _ -> "" (* max_frame too small even for errors *))

(* emit a response, honoring the ordered contract for pre-negotiation
   connections: [seq < 0] means the connection pipelines and the
   response goes straight out *)
let complete t conn st codec ?orig seq resp =
  let bytes = frame_of t codec ?orig resp in
  if seq < 0 then Reactor.send conn bytes
  else begin
    Mutex.lock st.slk;
    if seq = st.next_emit then begin
      Reactor.send conn bytes;
      st.next_emit <- seq + 1;
      let rec drain () =
        match Hashtbl.find_opt st.held st.next_emit with
        | Some b ->
            Hashtbl.remove st.held st.next_emit;
            Obs.gauge_add t.m.held_g (-1.0);
            Reactor.send conn b;
            st.next_emit <- st.next_emit + 1;
            drain ()
        | None -> ()
      in
      drain ()
    end
    else begin
      Hashtbl.add st.held seq bytes;
      Obs.gauge_add t.m.held_g 1.0
    end;
    Mutex.unlock st.slk
  end

(* loop thread only: the request's place in a v1 connection's response
   order, -1 when the connection pipelines *)
let take_seq st =
  if st.pipelined then -1
  else begin
    let s = st.next_seq in
    st.next_seq <- s + 1;
    s
  end

let begin_inflight t st =
  Atomic.incr t.inflight;
  Obs.gauge_add t.m.inflight_g 1.0;
  Mutex.lock st.slk;
  st.cinflight <- st.cinflight + 1;
  Mutex.unlock st.slk

let finish_inflight t conn st =
  Atomic.decr t.inflight;
  Obs.gauge_add t.m.inflight_g (-1.0);
  Mutex.lock st.slk;
  st.cinflight <- st.cinflight - 1;
  let close_now = st.eof && st.cinflight = 0 in
  Mutex.unlock st.slk;
  (* the peer stopped sending while we still owed responses; they are
     queued now, so flush-and-close *)
  if close_now then Reactor.close conn

(* ------------------------------------------------------------------ *)
(* request execution                                                   *)
(* ------------------------------------------------------------------ *)

let deadline_msg d = Printf.sprintf "deadline exceeded (%.0f ms limit)" (1000. *. d)

let run_job t job =
  match t.dispatch with
  | None -> job ()
  | Some d -> (
      Obs.incr t.m.dispatched;
      (* a dispatch pool that is already shut down must not lose the
         request — fall back to inline *)
      try d job with _ -> job ())

(* ------------------------------------------------------------------ *)
(* the hello handshake                                                 *)
(* ------------------------------------------------------------------ *)

(* compares in place: this runs on every small JSON frame *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i j = j = nn || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = i + nn <= nh && (at i 0 || go (i + 1)) in
  go 0

let hello_req payload =
  if String.length payload <= 512 && contains payload "\"hello\"" then
    match Jsonl.of_string_opt payload with
    | Some (Jsonl.Obj _ as req)
      when Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt
           = Some "hello" ->
        Some req
    | _ -> None
  else None

let handle_hello t conn st req payload =
  Obs.incr t.m.hello;
  let requested =
    Option.value ~default:"json"
      (Option.bind (Jsonl.member "codec" req) Jsonl.to_string_opt)
  in
  let want_pipeline =
    match Jsonl.member "pipeline" req with
    | Some (Jsonl.Bool b) -> b
    | _ -> true
  in
  let codec =
    if requested = "binary" && t.bin_handler <> None then Cbinary else Cjson
  in
  (* the binary codec keys responses by request id, which already makes
     them order-free — binary implies pipelining *)
  let pipelined = want_pipeline || codec = Cbinary in
  let fields =
    [
      ("ok", Jsonl.Bool true);
      ("version", Jsonl.int 2);
      ("codec", Jsonl.Str (match codec with Cbinary -> "binary" | Cjson -> "json"));
      ("pipeline", Jsonl.Bool pipelined);
      ("max_frame", Jsonl.int t.max_frame);
    ]
  in
  let fields =
    match Jsonl.member "id" req with
    | Some id -> ("id", id) :: fields
    | None -> fields
  in
  let resp = Jsonl.to_string (Jsonl.Obj fields) in
  (* the response itself still honors the pre-hello ordering; the mode
     switch applies from the next frame on (the client is required to
     wait for this answer before using what it negotiated) *)
  complete t conn st st.codec ~orig:payload (take_seq st) resp;
  st.codec <- codec;
  st.pipelined <- pipelined

(* ------------------------------------------------------------------ *)
(* reactor callbacks                                                   *)
(* ------------------------------------------------------------------ *)

(* a longer frame is deferred whole, front half included: parsing it is
   the one front-half cost that grows with the frame, and hot queries
   are short *)
let front_max_bytes = 4096

(* one request: the handler's front half here on the loop, its back half
   (if any) on [dispatch].  Both halves are timed, re-rooted under the
   client's ["span_parent"] when a trace is live, and never raise; the
   deadline applies to their sum, as it did when one job ran both. *)
let on_request t conn st payload =
  Obs.incr t.m.requests;
  let seq = take_seq st in
  let codec = st.codec in
  let handler =
    match codec with
    | Cjson -> t.handler
    | Cbinary -> (
        Obs.incr t.m.binary;
        match t.bin_handler with
        | Some bin -> bin
        | None ->
            (* unreachable: binary is only granted with a bin_handler *)
            fun _ ->
              Psph_engine.Serve.Now
                (error_for codec ~orig:payload "binary codec unavailable"))
  in
  (* nests a loopback trace net.client.request -> serve.request across
     the socket; only looked for (and only observable) under a live sink,
     and by whichever thread runs the front half *)
  let parent =
    lazy
      (if codec = Cjson && Obs.current_sink () <> Obs.Null then
         Some (span_parent_of payload)
       else None)
  in
  let internal e =
    error_for codec ~orig:payload ("internal error: " ^ Printexc.to_string e)
  in
  let run half =
    match Lazy.force parent with
    | Some p -> Obs.with_parent p half
    | None -> half ()
  in
  let timed half on_raise =
    let t0 = Obs.monotonic () in
    let r = try run half with e -> on_raise (internal e) in
    (r, Obs.monotonic () -. t0)
  in
  let finish elapsed resp =
    Obs.observe t.m.request_s elapsed;
    let resp =
      match t.deadline_s with
      | Some d when elapsed > d ->
          (* cooperative: the work already ran, but the contract with
             the client is an error once the deadline has passed *)
          Obs.incr t.m.deadline_exceeded;
          error_for codec ~orig:payload (deadline_msg d)
      | _ -> resp
    in
    complete t conn st codec ~orig:payload seq resp
  in
  let front () = timed (fun () -> handler payload) (fun r -> Psph_engine.Serve.Now r) in
  (* answer a request whose front half has run, in this thread *)
  let rest = function
    | Psph_engine.Serve.Now resp, front -> finish front resp
    | Later back, front ->
        let resp, dt = timed back Fun.id in
        finish (front +. dt) resp
  in
  let defer job =
    begin_inflight t st;
    run_job t (fun () ->
        job ();
        finish_inflight t conn st)
  in
  if String.length payload > front_max_bytes then defer (fun () -> rest (front ()))
  else
    match front () with
    | (Now _, _) as answered -> rest answered
    | (Later _, _) as half -> defer (fun () -> rest half)

let on_frame t conn payload =
  match Reactor.user conn with
  | Conn st -> (
      match
        match st.codec with Cjson -> hello_req payload | Cbinary -> None
      with
      | Some req -> handle_hello t conn st req payload
      | None -> on_request t conn st payload)
  | _ -> ()

let on_failure t conn fail =
  match Reactor.user conn with
  | Conn st -> (
      match fail with
      | Reactor.Torn -> Obs.incr t.m.torn
      | Reactor.Oversized len ->
          (* the stream is desynced: answer (the client's reader stays
             coherent — frames survive a poisoned peer) and hang up *)
          Obs.incr t.m.frame_errors;
          let msg =
            Printf.sprintf "frame too large (%d bytes, max %d)" len t.max_frame
          in
          complete t conn st st.codec (take_seq st) (error_for st.codec msg);
          Reactor.close conn)
  | _ -> ()

let on_eof _t conn =
  match Reactor.user conn with
  | Conn st ->
      Mutex.lock st.slk;
      st.eof <- true;
      let idle = st.cinflight = 0 in
      Mutex.unlock st.slk;
      (* half-closed peers still read: finish what is in flight, then
         close (the reactor flushes queued output first) *)
      if idle then Reactor.close conn
  | _ -> Reactor.close conn

let on_close t _conn =
  Obs.incr t.m.closed;
  Obs.gauge_add t.m.active (-1.0)

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let listen ?(metrics = "net.server") ?(backlog = 64) ?(max_conns = 64)
    ?deadline_s ?(max_frame = Frame.max_frame_default) ?(reactor_threads = 2)
    ?bin_handler ?dispatch ~handler addr =
  Lazy.force ignore_sigpipe;
  match Addr.resolve addr with
  | Error _ as e -> e
  | Ok sockaddr -> (
      let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock sockaddr;
        Unix.listen sock backlog;
        let port =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> addr.Addr.port
        in
        let m = make_metrics metrics in
        let rec t =
          lazy
            {
              lsock = sock;
              port;
              handler;
              bin_handler;
              dispatch;
              max_conns = max 1 max_conns;
              deadline_s;
              max_frame;
              reactor =
                Reactor.create
                  ~metrics:(metrics ^ ".reactor")
                  ~loops:reactor_threads ~max_frame
                  ~on_frame:(fun conn payload ->
                    on_frame (Lazy.force t) conn payload)
                  ~on_failure:(fun conn fail ->
                    on_failure (Lazy.force t) conn fail)
                  ~on_eof:(fun conn -> on_eof (Lazy.force t) conn)
                  ~on_close:(fun conn -> on_close (Lazy.force t) conn)
                  ();
              stopping = Atomic.make false;
              inflight = Atomic.make 0;
              server_thread = None;
              m;
            }
        in
        Ok (Lazy.force t)
      with Unix.Unix_error (e, fn, _) ->
        (try Unix.close sock with _ -> ());
        Error
          (Printf.sprintf "cannot listen on %s: %s (%s)" (Addr.to_string addr)
             (Unix.error_message e) fn))

let port t = t.port

let request_stop t =
  if not (Atomic.exchange t.stopping true) then
    (* aborts a blocked/future accept; everything else happens on the
       normal-context drain path, keeping this safe in a signal handler *)
    try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL with _ -> ()

let fresh_cstate () =
  Conn
    {
      codec = Cjson;
      pipelined = false;
      next_seq = 0;
      slk = Mutex.create ();
      next_emit = 0;
      held = Hashtbl.create 8;
      cinflight = 0;
      eof = false;
    }

let serve t =
  Reactor.start t.reactor;
  let rec accept_loop () =
    while
      Reactor.active t.reactor >= t.max_conns && not (Atomic.get t.stopping)
    do
      (* no timed condvar in stdlib and [request_stop] may run in signal
         context: wait in short slices, re-checking the stopping flag *)
      Thread.delay 0.05
    done;
    if not (Atomic.get t.stopping) then
      match Unix.accept ~cloexec:true t.lsock with
      | fd, _ ->
          Obs.incr t.m.accepted;
          Obs.gauge_add t.m.active 1.0;
          (match Reactor.add t.reactor ~user:(fresh_cstate ()) fd with
          | (_ : Reactor.conn) -> ()
          | exception _ -> ( try Unix.close fd with _ -> ()));
          accept_loop ()
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          accept_loop ()
      | exception Unix.Unix_error _ ->
          (* EMFILE and friends: back off and retry unless stopping
             (shutdown of the listening socket also lands here) *)
          if not (Atomic.get t.stopping) then begin
            (try Thread.delay 0.05 with _ -> ());
            accept_loop ()
          end
  in
  (try accept_loop () with _ -> ());
  (* drain: no new reads, wait out the in-flight jobs (their responses
     queue on the connections), then the reactor flushes and closes *)
  Reactor.stop_reading t.reactor;
  while Atomic.get t.inflight > 0 do
    Thread.delay 0.002
  done;
  Reactor.stop t.reactor;
  try Unix.close t.lsock with _ -> ()

let start t = t.server_thread <- Some (Thread.create (fun () -> serve t) ())

(* a [dispatch] for handlers that block on their own downstream I/O
   (e.g. a Router fanning out to backends): one thread per in-flight
   job up to [max_threads], inline beyond that so overload degrades to
   backpressure instead of unbounded thread creation *)
let threaded_dispatch ?(max_threads = 256) () =
  let active = Atomic.make 0 in
  fun job ->
    if Atomic.fetch_and_add active 1 < max_threads then
      ignore
        (Thread.create
           (fun () -> Fun.protect ~finally:(fun () -> Atomic.decr active) job)
           ())
    else begin
      Atomic.decr active;
      job ()
    end

let stop t =
  request_stop t;
  match t.server_thread with
  | Some th ->
      Thread.join th;
      t.server_thread <- None
  | None -> ()
