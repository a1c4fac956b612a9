(* The `psc serve` request/response loop: one JSON document per line on
   stdin, one response per line on stdout (JSON Lines).  Request shapes:

     <a hot query>          betti / connectivity / psph / model-complex,
                            parsed and answered by Query (grammar there)
     {"op":"batch",         "requests":[ <hot queries> ]}
     {"op":"models"}
     {"op":"stats"}
     {"op":"metrics"}
     {"op":"snapshot",      "cursor":0, "limit":512}
     {"op":"populate",      "entries":["<hex> <conn> <betti csv>", ...]}

   Responses echo "id" when present and carry "ok".  A batch response
   holds "results" in request order; its members are evaluated in
   parallel on the engine's pool.

   Robustness: [handle_line] never raises.  Expected failures (parse
   errors, bad requests, invalid parameters) and unexpected handler
   exceptions alike produce {"ok":false,"error":...} — echoing the
   request's "id" when one was parsed — and the loop keeps going.  One
   bad request must not kill the server.

   Each line is answered in two halves ([respond]): a front half that
   parses and answers what is bounded work — a warm cache hit, the fixed
   ops, any error — and a deferred back half ([Later]) for everything
   else, so a network server can keep its event loops free of unbounded
   work without a second handler.  With two or more worker domains the
   whole line is the back half ([front]).  [handle_line] runs both in
   the caller.

   Observability: each line is answered in a [serve.request] span
   carrying a process-wide request counter and the op label, opened by
   the half that answers; the run time of both halves (not the wait
   between them) lands in a per-op [serve.op.<label>] histogram.  Labels are the ops
   above, "other" for an unknown op and "invalid" when no op was
   parsed.  The [metrics] op — and a "metrics" field on [stats] —
   returns the full {!Obs.snapshot_json}. *)

open Psph_obs

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

let int_field req name default =
  match Jsonl.member name req with
  | None -> default
  | Some v -> (
      match Jsonl.to_int_opt v with
      | Some i -> i
      | None -> bad "field %S must be an integer" name)

(* an error reply, echoing the request's "id" when one was parsed *)
let error_response ?req msg =
  Query.reply_json
    ?id:(Option.bind req (Jsonl.member "id"))
    (Query.Failed { id = 0; message = msg })

let stats_response engine =
  let s = Engine.stats engine in
  Jsonl.Obj
    [
      ("ok", Jsonl.Bool true);
      ( "stats",
        Jsonl.Obj
          [
            ("hits", Jsonl.int s.Engine.hits);
            ("misses", Jsonl.int s.misses);
            ("evictions", Jsonl.int s.evictions);
            ("cache_len", Jsonl.int s.cache_len);
            ("jobs", Jsonl.int s.jobs);
            ("queries", Jsonl.int s.queries);
            ("domains", Jsonl.int s.domains);
            ("build_s", Jsonl.Num s.build_s);
            ("compute_s", Jsonl.Num s.compute_s);
          ] );
      ("metrics", Obs.snapshot_json ());
    ]

let metrics_response () =
  Jsonl.Obj [ ("ok", Jsonl.Bool true); ("metrics", Obs.snapshot_json ()) ]

(* "models" keeps its original shape (an array of names — the router's
   health probe and old clients parse it); extension declarations ride in
   a separate "params" object so new clients can discover model-owned
   flags without a schema bump *)
let models_response () =
  let ext_fields m =
    List.map
      (fun ep ->
        ( ep.Pseudosphere.Model_complex.ep_name,
          Jsonl.Obj
            [
              ("doc", Jsonl.Str ep.Pseudosphere.Model_complex.ep_doc);
              ("default", Jsonl.int ep.ep_default);
            ] ))
      (Pseudosphere.Model_complex.ext_params_of m)
  in
  Jsonl.Obj
    [
      ("ok", Jsonl.Bool true);
      ( "models",
        Jsonl.Arr
          (List.map
             (fun n -> Jsonl.Str n)
             (Pseudosphere.Model_complex.names ())) );
      ( "params",
        Jsonl.Obj
          (List.filter_map
             (fun name ->
               match Pseudosphere.Model_complex.find name with
               | Some m when Pseudosphere.Model_complex.ext_params_of m <> [] ->
                   Some (name, Jsonl.Obj (ext_fields m))
               | _ -> None)
             (Pseudosphere.Model_complex.names ())) );
    ]

(* the replication tier's wire ops (docs/NET.md "Replication &
   rebalance"): [snapshot] pages the memo cache out in store-line form
   for a warming peer, [populate] loads finished answers in.  Paging
   sorts by store line so a cursor stays meaningful across requests on
   a stable cache; a churning cache costs the warming peer some
   entries, never correctness (content addressing — see Engine.warm). *)
let with_id req fields =
  match Jsonl.member "id" req with
  | Some id -> ("id", id) :: fields
  | None -> fields

let snapshot_response engine req =
  let cursor = max 0 (int_field req "cursor" 0) in
  let limit = min 4096 (max 1 (int_field req "limit" 512)) in
  let lines =
    List.sort compare
      (List.map
         (fun (k, e) -> Store.entry_to_line k e)
         (Engine.snapshot engine))
  in
  let total = List.length lines in
  let page = List.filteri (fun i _ -> i >= cursor && i < cursor + limit) lines in
  let next = min total (cursor + limit) in
  Jsonl.Obj
    (with_id req
       [
         ("ok", Jsonl.Bool true);
         ("total", Jsonl.int total);
         ("cursor", Jsonl.int cursor);
         ("next", Jsonl.int next);
         ("done", Jsonl.Bool (next >= total));
         ("entries", Jsonl.Arr (List.map (fun l -> Jsonl.Str l) page));
       ])

let populate_response engine req =
  match Option.bind (Jsonl.member "entries" req) Jsonl.to_list_opt with
  | None -> bad "populate needs an \"entries\" array"
  | Some lines ->
      let parsed =
        List.filter_map
          (fun l -> Option.bind (Jsonl.to_string_opt l) Store.entry_of_line)
          lines
      in
      let loaded = Engine.warm engine parsed in
      Jsonl.Obj
        (with_id req
           [
             ("ok", Jsonl.Bool true);
             ("loaded", Jsonl.int loaded);
             ("skipped", Jsonl.int (List.length lines - loaded));
           ])

(* parse everything first so one bad member fails its slot, not the
   whole batch; then evaluate the good ones in parallel.  Every slot is
   rendered exactly as the top-level answer would be — the router
   splices batch members verbatim, so a member response must be
   byte-identical to its top-level counterpart. *)
let batch_response engine req =
  let requests =
    match Option.bind (Jsonl.member "requests" req) Jsonl.to_list_opt with
    | Some rs -> rs
    | None -> bad "batch needs a \"requests\" array"
  in
  let parsed = List.map (fun r -> (r, Query.of_json r)) requests in
  let results =
    Engine.run_all engine
      (List.filter_map
         (function
           | _, Ok q -> Some (fun () -> Query.answer engine q)
           | _, Error _ -> None)
         parsed)
  in
  let rec zip parsed results =
    match (parsed, results) with
    | [], _ -> []
    | (r, Error m) :: tl, results -> error_response ~req:r m :: zip tl results
    | (r, Ok _) :: tl, res :: results ->
        Query.reply_json ?id:(Jsonl.member "id" r) res :: zip tl results
    | (_, Ok _) :: _, [] -> assert false
  in
  Jsonl.Obj
    [ ("ok", Jsonl.Bool true); ("results", Jsonl.Arr (zip parsed results)) ]

(* process-wide request counter; attached to every [serve.request] span so
   a trace's requests stay distinguishable even without client "id"s *)
let request_ids = Atomic.make 0

let requests_c = lazy (Obs.counter "serve.requests")

(* per-op latency histograms under a bounded label set: the ops this
   module answers, "other" for any other op string a client sends, and
   "invalid" when no op was parsed — so hostile op names cannot grow the
   metric registry *)
let op_labels =
  [
    "betti"; "connectivity"; "psph"; "model-complex"; "batch"; "models";
    "stats"; "metrics"; "snapshot"; "populate";
  ]

let op_label = function
  | None -> "invalid"
  | Some op -> if List.mem op op_labels then op else "other"

type step = Now of string | Later of (unit -> string)

let force = function Now s -> s | Later f -> f ()

(* an event loop is one domain: hits answered there serialize work that
   a pool of two or more worker domains would spread, so with such a
   pool the whole request, parse included, is the back half *)
let front engine f =
  if Engine.domains engine > 1 then Later (fun () -> force (f ())) else f ()

let split engine line =
  let t0 = Obs.monotonic () in
  let rid = Atomic.fetch_and_add request_ids 1 in
  Obs.incr (Lazy.force requests_c);
  (* the answering half: the request's one [serve.request] span, and its
     [serve.op.<label>] entry, which adds the time the front half ran
     [before] it — never the wait for a worker in between *)
  let finish ?req ~before op body =
    let t1 = Obs.monotonic () in
    Obs.with_span "serve.request"
      ~attrs:[ ("request", Jsonl.int rid) ]
      (fun sp ->
        let response =
          try body () with
          | Bad_request m | Invalid_argument m | Failure m ->
              error_response ?req m
          | e ->
              (* a handler bug or resource blow-up must answer this
                 request, not kill the serve loop *)
              error_response ?req ("internal error: " ^ Printexc.to_string e)
        in
        let label = op_label op in
        Obs.set_attr sp "op" (Jsonl.Str label);
        Obs.observe
          (Obs.histogram ("serve.op." ^ label))
          (before +. (Obs.monotonic () -. t1));
        Jsonl.to_string response)
  in
  let now ?req op body = Now (finish ?req ~before:(Obs.monotonic () -. t0) op body) in
  let later ~req op body =
    let before = Obs.monotonic () -. t0 in
    Later (fun () -> finish ~req ~before op body)
  in
  match Jsonl.of_string line with
  | exception Jsonl.Parse_error m ->
      now None (fun () -> error_response ("parse error: " ^ m))
  | exception e ->
      (* e.g. Stack_overflow from pathologically nested input *)
      now None (fun () -> error_response ("parse error: " ^ Printexc.to_string e))
  | req -> (
      let op = Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt in
      let now = now ~req op and later = later ~req op in
      match op with
      | Some "stats" -> now (fun () -> stats_response engine)
      | Some "metrics" -> now metrics_response
      | Some "models" -> now models_response
      (* their cost grows with the request or the cache *)
      | Some "snapshot" -> later (fun () -> snapshot_response engine req)
      | Some "populate" -> later (fun () -> populate_response engine req)
      | Some "batch" -> later (fun () -> batch_response engine req)
      | _ -> (
          (* a hot query (or an unknown op, which its parser rejects): a
             warm slot answers now, anything that must build, eliminate
             or derive waits for a worker *)
          let id = Jsonl.member "id" req in
          match Query.of_json req with
          | Error m -> now (fun () -> error_response ~req m)
          | Ok q -> (
              match Query.lookup engine q with
              | Some _ as probed ->
                  now (fun () -> Query.reply_json ?id (Query.answer ~probed engine q))
              | None ->
                  later (fun () ->
                      Query.reply_json ?id (Query.answer ~probed:None engine q)))))

let respond engine line = front engine (fun () -> split engine line)

let handle_line engine line = force (respond engine line)

let run engine ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        output_string oc (handle_line engine line);
        output_char oc '\n';
        flush oc;
        loop ()
  in
  loop ();
  Engine.flush engine
