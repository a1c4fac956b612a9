(* perfbench: one repeatable benchmark of the whole query path, from
   client to topology, and of each layer on it.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--psc PATH]

   Every server under test is its own [psc serve --listen] (or
   [psc route]) child process; this process is the load generator (at
   most two generator threads and two connections).  The query stream
   is drawn from [--seed] and the servers see only the generated
   requests.  Every answer is checked.  With [--trace 0] the run prints
   the end-to-end metrics; with [--trace 1] it prints the per-layer
   metrics, measured from outside each layer by timing calls into its
   public functions under Obs spans kept in memory.  The last line of
   stdout is one JSON object; see perfbench/CATALOGUE.md. *)

open Psph_obs
open Psph_net
open Pseudosphere
module E = Psph_engine.Engine
module Serve = Psph_engine.Serve
module Key = Psph_engine.Key
module L = Psph_load.Loadgen
module S = Perfbench_stats.Stats
module T = Psph_topology

(* ------------------------------------------------------------------ *)
(* arguments                                                           *)
(* ------------------------------------------------------------------ *)

let workloads = [ "cold-solve"; "hot-json"; "hot-binary"; "routed" ]

let usage =
  "usage: main.exe --workload cold-solve|hot-json|hot-binary|routed --seed N \
   --seconds S --trace 0|1 [--psc PATH]"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  psc : string;
}

let parse_args argv =
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads ->
        go { a with workload = w } rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest
      when Option.fold ~none:false ~some:(fun s -> s > 0.) (float_of_string_opt s)
      ->
        go { a with seconds = float_of_string s } rest
    | "--trace" :: (("0" | "1") as t) :: rest -> go { a with trace = t = "1" } rest
    | "--psc" :: p :: rest -> go { a with psc = p } rest
    | [] when a.workload <> "" -> Some a
    | _ -> None
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 10.;
      trace = false;
      psc = "_build/default/bin/psc.exe";
    }
    (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* child processes                                                     *)
(* ------------------------------------------------------------------ *)

type proc = { pid : int; addr : Addr.t }

let children = ref []

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  Unix.close fd;
  p

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Obs.monotonic () +. 3. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Obs.monotonic () < deadline ->
        Thread.delay 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  children := List.filter (( <> ) pid) !children

let stop p = reap p.pid

let () =
  at_exit (fun () -> List.iter reap !children);
  (* a benchmark stopped from outside still stops its servers *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cpu_ticks pid = S.cpu_ticks_of_stat (read_file (Printf.sprintf "/proc/%d/stat" pid))

let hwm_mb pid =
  match S.vm_hwm_kb_of_status (read_file (Printf.sprintf "/proc/%d/status" pid)) with
  | Some kb -> float_of_int kb /. 1024.
  | None -> 0.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let v1_client ?(timeout_ms = 30_000) addr = Client.create ~timeout_ms ~retries:0 addr

let wait_ready addr =
  let deadline = Obs.monotonic () +. 30. in
  let rec go () =
    let c = v1_client ~timeout_ms:500 addr in
    let ok = Result.is_ok (Client.request c {|{"op":"models"}|}) in
    Client.close c;
    if not ok then
      if Obs.monotonic () > deadline then
        failwith (Printf.sprintf "server %s never became ready" (Addr.to_string addr))
      else begin
        (* polls are part of the set-up's CPU; keep them few *)
        Thread.delay 0.002;
        go ()
      end
  in
  go ()

(* spawn [psc <sub> --listen 127.0.0.1:<free> <args>] and wait until it answers *)
let spawn psc sub args =
  let addr = { Addr.host = "127.0.0.1"; port = free_port () } in
  let argv = psc :: sub :: "--listen" :: Addr.to_string addr :: args in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) null null null in
  Unix.close null;
  children := pid :: !children;
  let p = { pid; addr } in
  wait_ready addr;
  p

(* ------------------------------------------------------------------ *)
(* queries                                                             *)
(* ------------------------------------------------------------------ *)

let spec_of_query = function
  | Codec.Psph { n; values } -> E.Psph { n; values }
  | Codec.Model { model; spec } -> E.Model { model; params = spec }
  | Codec.Facets strs ->
      E.Explicit (T.Complex.of_facets (List.map T.Complex_io.simplex_of_string strs))

let line_of q = Codec.json_line_of_query Codec.Both q

(* a reply's answer, without the fields that legitimately differ
   between a hit and a miss (cached flag, solver tier, transport id) *)
let answer_of_line s =
  match Codec.reply_of_json s with
  | Some (Codec.Result { key; betti; connectivity; _ }) -> Some (key, betti, connectivity)
  | _ -> None

(* The reference answer for a query, in the shape [answer_of_line]
   gives, computed in process by direct elimination on the built
   complex: no engine, no precollapse.  A JSON facets query asks for
   the Betti numbers only. *)
let reference q =
  let c = E.build (spec_of_query q) in
  let conn = match q with Codec.Facets _ -> None | _ -> Some (T.Homology.connectivity c) in
  (c, (Key.to_hex (Key.of_complex c), Some (T.Homology.betti c), conn))

let matches expect s = answer_of_line s = Some expect

(* The cold grid: every registered model over n, r, f/k and its own ext
   values, plus psph shapes, minus points above [size_cap] simplices so
   no single query dominates, minus repeats of a content key so every
   answer is a miss on a fresh server. *)
let size_cap = 2000

type cold_point = {
  q : Codec.query;
  line : string;
  expect : string * int array option * int option;
}

let cold_grid () =
  let models =
    List.concat_map
      (fun m ->
        let name = Model_complex.name_of m in
        let exts =
          match name with
          | "byz" -> [ [ ("t", 1); ("equiv", 0) ]; [ ("t", 1); ("equiv", 1) ]; [ ("t", 2); ("equiv", 1) ] ]
          | "dyn" -> [ [ ("adv", 0) ]; [ ("adv", 1) ]; [ ("adv", 2) ] ]
          | _ -> [ [] ]
        in
        List.concat_map
          (fun (n, r) ->
            List.concat_map
              (fun fk ->
                List.map
                  (fun ext ->
                    Codec.Model
                      {
                        model = name;
                        spec = { Model_complex.default_spec with n; r; f = fk; k = fk; ext };
                      })
                  exts)
              [ 1; 2 ])
          [ (1, 1); (1, 2); (2, 1); (2, 2); (3, 1) ])
      (Model_complex.all ())
  in
  let psph =
    List.concat_map (fun n -> List.map (fun values -> Codec.Psph { n; values }) [ 2; 3; 4 ]) [ 1; 2; 3 ]
  in
  let seen = Hashtbl.create 128 in
  List.filter_map
    (fun q ->
      let c, ((key, _, _) as expect) = reference q in
      if T.Complex.num_simplices c > size_cap || Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some { q; line = line_of q; expect }
      end)
    (models @ psph)
  |> Array.of_list

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* load: one sender abstraction, closed and open loops                 *)
(* ------------------------------------------------------------------ *)

(* Spans in the generator, live only in the traced run (one branch
   otherwise), so both runs execute the same code. *)
let tracing = ref false

let sp name f = if !tracing then Obs.with_span name (fun _ -> f ()) else f ()

(* [send client ~on_latency keys] sends the keys (indexes into the
   workload's key table) as one pipelined flight and says, per key,
   whether the answer was received and correct. *)
type sender = {
  make : unit -> Client.t;
  send : Client.t -> on_latency:(int -> float -> unit) -> int array -> bool array;
}

let json_sender ~make lines check =
  {
    make;
    send =
      (fun c ~on_latency ks ->
        let batch = sp "wire.prepare" (fun () -> Array.to_list (Array.map (fun k -> lines.(k)) ks)) in
        let rs = sp "wire.roundtrip" (fun () -> Client.pipeline ~on_latency c batch) in
        sp "wire.check" (fun () ->
            Array.of_list
              (List.mapi (fun i r -> match r with Ok s -> check ks.(i) s | Error _ -> false) rs)));
  }

let no_id = function
  | Codec.Result r -> Codec.Result { r with id = 0 }
  | Codec.Failed f -> Codec.Failed { f with id = 0 }

let binary_sender ~make qs check =
  {
    make;
    send =
      (fun c ~on_latency ks ->
        let batch =
          sp "wire.prepare" (fun () -> Array.to_list (Array.map (fun k -> (Codec.Both, qs.(k))) ks))
        in
        let rs = sp "wire.roundtrip" (fun () -> Client.eval_many ~on_latency c batch) in
        sp "wire.check" (fun () ->
            Array.of_list
              (List.mapi
                 (fun i r -> match r with Ok rep -> check ks.(i) (no_id rep) | Error _ -> false)
                 rs)));
  }

type run = {
  sent : int;
  bad : int;  (** errors, timeouts and wrong answers *)
  lats : float array;  (** seconds, correct answers, in due order *)
  lags : float array;  (** send time minus due time, seconds *)
  wall : float;
  offered : float;  (** requests per second actually offered *)
}

let merge_runs wall parts =
  let lats =
    Array.concat (List.map (fun (_, _, l, _) -> Array.of_list l) parts)
  in
  Array.sort (fun (a, _) (b, _) -> compare a b) lats;
  let sent = List.fold_left (fun a (s, _, _, _) -> a + s) 0 parts in
  {
    sent;
    bad = List.fold_left (fun a (_, b, _, _) -> a + b) 0 parts;
    lats = Array.map snd lats;
    lags = Array.concat (List.map (fun (_, _, _, g) -> Array.of_list g) parts);
    wall;
    offered = float_of_int sent /. wall;
  }

let on_threads n f =
  let out = Array.make n None in
  let ths = List.init n (fun i -> Thread.create (fun () -> out.(i) <- Some (f i)) ()) in
  List.iter Thread.join ths;
  Array.to_list (Array.map Option.get out)

(* Closed loop: [callers] connections, one request in flight each,
   walking [items] round-robin.  Latency is send to answer; lag is the
   generator's own gap between an answer and the next send. *)
let closed_loop sender ~callers items =
  let t0 = Obs.monotonic () in
  let parts =
    on_threads callers (fun ci ->
        let c = sender.make () in
        let sent = ref 0 and bad = ref 0 and lats = ref [] and lags = ref [] in
        let last = ref (Obs.monotonic ()) in
        Array.iteri
          (fun i k ->
            if i mod callers = ci then begin
              let t = Obs.monotonic () in
              lags := (t -. !last) :: !lags;
              let ok = (sender.send c ~on_latency:(fun _ _ -> ()) [| k |]).(0) in
              last := Obs.monotonic ();
              incr sent;
              if ok then lats := (t, !last -. t) :: !lats else incr bad
            end)
          items;
        Client.close c;
        (!sent, !bad, !lats, !lags))
  in
  merge_runs (Obs.monotonic () -. t0) parts

(* Open loop over two connections: Poisson arrivals at [rate] in total,
   each request timed from its due time (so a stall is charged to every
   request it delays), keys drawn from [cdf] by a seeded RNG. *)
let batch_cap = 64

let open_loop sender ~cdf ~rate ~duration ~seed ~phase =
  let conns = 2 in
  let t0 = Obs.monotonic () in
  let parts =
    on_threads conns (fun wi ->
        let rng = Random.State.make [| seed; phase; wi |] in
        let c = sender.make () in
        let sent = ref 0 and bad = ref 0 and lats = ref [] and lags = ref [] in
        (* connect (and negotiate) before the schedule starts, so no
           request's latency includes the handshake *)
        let first = sender.send c ~on_latency:(fun _ _ -> ()) [| L.sample_rank cdf rng |] in
        if not first.(0) then begin
          incr sent;
          incr bad
        end;
        let mean_gap = float_of_int conns /. rate in
        let gap () = -.mean_gap *. log (1. -. Random.State.float rng 1.) in
        let start = Obs.monotonic () in
        let deadline = start +. duration in
        let next = ref (start +. gap ()) in
        let rec loop () =
          let now = Obs.monotonic () in
          let due = ref [] and nd = ref 0 in
          while !next <= now && !next < deadline && !nd < batch_cap do
            due := (!next, L.sample_rank cdf rng) :: !due;
            incr nd;
            next := !next +. gap ()
          done;
          if !nd > 0 then begin
            let items = Array.of_list (List.rev !due) in
            let fired = Obs.monotonic () in
            Array.iter (fun (t, _) -> lags := (fired -. t) :: !lags) items;
            let lat = Array.make (Array.length items) nan in
            let ok =
              sender.send c
                ~on_latency:(fun i _ -> lat.(i) <- Obs.monotonic () -. fst items.(i))
                (Array.map snd items)
            in
            Array.iteri
              (fun i good ->
                incr sent;
                let t = fst items.(i) in
                if good then
                  lats :=
                    (t, if Float.is_nan lat.(i) then Obs.monotonic () -. t else lat.(i)) :: !lats
                else incr bad)
              ok;
            loop ()
          end
          else if !next < deadline then begin
            Thread.delay (Float.min (!next -. now) 0.05);
            loop ()
          end
        in
        loop ();
        Client.close c;
        (!sent, !bad, !lats, !lags))
  in
  let r = merge_runs (Obs.monotonic () -. t0) parts in
  { r with offered = float_of_int r.sent /. duration }

let ms x = 1000. *. x

(* A capacity step's latency score: the worse of the answers' p99 and
   the generator's lag p99, in ms; infinite if any answer failed. *)
let score r =
  if r.bad > 0 || Array.length r.lats = 0 then infinity
  else ms (Float.max (S.percentile r.lats 99.) (S.percentile r.lags 99.))

(* Highest offered rate whose score stays under [limit_ms]: grow by
   1.5x from [start] (or shrink, if [start] fails) until the verdict
   flips, then bisect geometrically while the time budget lasts, and
   return the last passing rate.  Each step is [step_s] of open loop. *)
let capacity_search ~probe ~limit_ms ~start ~budget_s ~step_s =
  let t_end = Obs.monotonic () +. budget_s in
  let time_left () = Obs.monotonic () +. step_s < t_end in
  let runs = ref [] and phase = ref 100 in
  let passes rate =
    incr phase;
    let r = probe ~phase:!phase ~rate ~duration:step_s in
    runs := r :: !runs;
    score r <= limit_ms
  in
  let rec bisect lo hi =
    if not (time_left ()) then lo
    else
      let mid = sqrt (lo *. hi) in
      if passes mid then bisect mid hi else bisect lo mid
  in
  let rec grow lo =
    if not (time_left ()) then lo
    else if passes (lo *. 1.5) then grow (lo *. 1.5)
    else bisect lo (lo *. 1.5)
  in
  (* no rate has passed yet: report the next one down if time runs out *)
  let rec shrink hi =
    if not (time_left ()) then hi /. 1.5
    else if passes (hi /. 1.5) then bisect (hi /. 1.5) hi
    else shrink (hi /. 1.5)
  in
  let cap = if passes start then grow start else shrink start in
  (cap, !runs)

(* ------------------------------------------------------------------ *)
(* metrics output                                                      *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let print_table title rows =
  Printf.printf "== %s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.4f %s\n" n v u) rows

let git_commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.starts_with ~prefix:"ref: " head then
      String.trim (read_file (".git/" ^ String.sub head 5 (String.length head - 5)))
    else head
  with Sys_error _ -> "unknown"

(* Machine speed, sampled through the run: a short fixed loop between
   measured phases, timed on the wall clock and in process CPU. *)
let calib = ref []

let calibrate () =
  let w0 = Obs.monotonic () and c0 = self_cpu_s () in
  let x = ref 1 in
  for i = 1 to 2_000_000 do
    x := (!x * 1103515245) + 12345 + i
  done;
  ignore (Sys.opaque_identity !x);
  calib := (ms (Obs.monotonic () -. w0), ms (self_cpu_s () -. c0)) :: !calib

let nproc () =
  try
    read_file "/proc/cpuinfo"
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"processor")
    |> List.length
  with Sys_error _ -> 0

let print_result ~correct ~attempted ~failed metrics =
  let j =
    Jsonl.Obj
      [
        ("correct", Jsonl.Bool correct);
        ("attempted", Jsonl.int attempted);
        ("failed", Jsonl.int failed);
        ( "metrics",
          Jsonl.Obj
            (List.map
               (fun x ->
                 (x.name, Jsonl.Obj [ ("value", Jsonl.Num x.value); ("unit", Jsonl.Str x.unit) ]))
               metrics) );
      ]
  in
  print_endline (Jsonl.to_string j)

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* What one workload's untraced run measured. *)
type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (** request accounting *)
  setups : (float * float) list;  (** see [sample_setups] *)
  light : run list;
  loaded : run list;
  server_cpu_us : float;
  client_cpu_us : float;
  rss_mb : float;
  table : (string * float * string) list;  (** workload-specific extras *)
}

let serve_args = [ "--domains"; "1" ]

(* CPU of a set of processes and of this process over [f] *)
let with_cpu pids f =
  let before = List.map cpu_ticks pids and self0 = self_cpu_s () in
  let r = f () in
  let after = List.map cpu_ticks pids and self1 = self_cpu_s () in
  (r, List.fold_left2 (fun a x y -> a + (y - x)) 0 before after, self1 -. self0)

let sum_sent runs = List.fold_left (fun a r -> a + r.sent) 0 runs

let sum_bad runs = List.fold_left (fun a r -> a + r.bad) 0 runs

let pooled runs = Array.concat (List.map (fun r -> r.lats) runs)

let lags runs = Array.concat (List.map (fun r -> r.lags) runs)

let run_consistent r = r.sent = Array.length r.lats + r.bad

(* [n] throw-away set-ups, each torn down before the next: the wall
   time of each (spawn to ready, plus warm-up), and the CPU each cost —
   this process's over set-up and tear-down plus its servers', spawn to
   exit.  Workloads take them before and after (or between) their timed
   phases, so the median spans the run's machine state, not a moment. *)
let sample_setups n setup teardown =
  List.init n (fun _ ->
      let t0 = Unix.times () and w0 = Obs.monotonic () in
      let x = setup () in
      let wall = Obs.monotonic () -. w0 in
      teardown x;
      (wall, S.cpu_s_between t0 (Unix.times ())))

(* cold-solve: pass after pass over the grid, each on a fresh server —
   one caller (light), then two callers (loaded). *)
let cold_solve a =
  let grid = cold_grid () in
  let check k s = matches grid.(k).expect s in
  let lines = Array.map (fun p -> p.line) grid in
  let lights = ref [] and loadeds = ref [] and rss = ref [] and setups = ref [] in
  let ticks = ref 0 and self = ref 0. and busy = ref 0. and pass = ref 0 in
  while !busy < a.seconds || !pass < 2 do
    let rng = Random.State.make [| a.seed; !pass |] in
    let order = shuffle rng (Array.init (Array.length grid) Fun.id) in
    List.iter
      (fun callers ->
        let p = spawn a.psc "serve" serve_args in
        let sender = json_sender ~make:(fun () -> v1_client p.addr) lines check in
        let r, tk, sc = with_cpu [ p.pid ] (fun () -> closed_loop sender ~callers order) in
        rss := hwm_mb p.pid :: !rss;
        stop p;
        calibrate ();
        ticks := !ticks + tk;
        self := !self +. sc;
        busy := !busy +. r.wall;
        if callers = 1 then lights := r :: !lights else loadeds := r :: !loadeds)
      [ 1; 2 ];
    (* a bare server start is this workload's set-up *)
    setups := sample_setups 1 (fun () -> spawn a.psc "serve" serve_args) stop @ !setups;
    incr pass
  done;
  let runs = !lights @ !loadeds in
  let requests = sum_sent runs - sum_bad runs in
  let qps = S.median (List.map (fun r -> float_of_int (r.sent - r.bad) /. r.wall) !lights) in
  {
    attempted = sum_sent runs;
    failed = sum_bad runs;
    checks_ok = List.for_all run_consistent runs;
    setups = !setups;
    light = !lights;
    loaded = !loadeds;
    server_cpu_us = S.cpu_us_per_req ~cpu_s:(S.seconds_of_ticks !ticks) ~requests;
    client_cpu_us = S.cpu_us_per_req ~cpu_s:!self ~requests;
    rss_mb = S.median !rss;
    table =
      [
        ("solve_qps", qps, "1/s");
        ("grid_points", float_of_int (Array.length grid), "count");
        ("passes", float_of_int !pass, "count");
      ];
  }

let json_client addr =
  Client.create ~timeout_ms:10_000 ~retries:0 ~codec:`Json ~pipeline_depth:32 addr

let binary_client addr =
  Client.create ~timeout_ms:10_000 ~retries:0 ~codec:`Binary ~pipeline_depth:32 addr

(* The open-loop measurement shared by the hot and routed workloads:
   the light rate, the loaded rate (CPU measured over both), then the
   capacity search with what is left of the budget. *)
type open_shape = { light_rps : float; loaded_rps : float; limit_ms : float }

let open_phases a ~pids ~sender ~cdf shape =
  let phase_s = a.seconds /. 4. in
  let (light, loaded), ticks, self =
    with_cpu pids (fun () ->
        let light = open_loop sender ~cdf ~rate:shape.light_rps ~duration:phase_s ~seed:a.seed ~phase:1 in
        let loaded =
          open_loop sender ~cdf ~rate:shape.loaded_rps ~duration:phase_s ~seed:a.seed ~phase:2
        in
        (light, loaded))
  in
  (* peak RSS over set-up and the fixed rates; the capacity search's
     rates vary from run to run, and so would its buffers *)
  let rss = List.fold_left (fun acc pid -> acc +. hwm_mb pid) 0. pids in
  calibrate ();
  let probe ~phase ~rate ~duration =
    let r = open_loop sender ~cdf ~rate ~duration ~seed:a.seed ~phase in
    calibrate ();
    r
  in
  let cap, probes =
    capacity_search ~probe ~limit_ms:shape.limit_ms ~start:shape.loaded_rps
      ~budget_s:(a.seconds /. 2.) ~step_s:1.0
  in
  let requests = sum_sent [ light; loaded ] - sum_bad [ light; loaded ] in
  ( light,
    loaded,
    probes,
    cap,
    rss,
    S.cpu_us_per_req ~cpu_s:(S.seconds_of_ticks ticks) ~requests,
    S.cpu_us_per_req ~cpu_s:self ~requests )

(* hot-json / hot-binary: a small key set from the load generator's own
   registry-derived table, warmed before timing so every request hits *)
let hot_keys = L.queries ~keyspace:16

let hot_shape = { light_rps = 2000.; loaded_rps = 6000.; limit_ms = 20. }

type hot_server = { hp : proc; sender : sender }

(* spawn, then ask every key twice: the second answer (a hit) is the
   reference every timed reply must equal — byte for byte in JSON,
   field for field in binary *)
let hot_setup a ~binary =
  let p = spawn a.psc "serve" serve_args in
  let n = Array.length hot_keys in
  let sender, reset =
    if binary then begin
      let refs = Array.make n None in
      ( binary_sender ~make:(fun () -> binary_client p.addr) hot_keys (fun k rep ->
            match (refs.(k), rep) with
            | Some r, _ -> r = rep
            | None, Codec.Result _ ->
                refs.(k) <- Some rep;
                true
            | None, Codec.Failed _ -> false),
        fun () -> Array.fill refs 0 n None )
    end
    else begin
      let refs = Array.make n None in
      ( json_sender ~make:(fun () -> json_client p.addr) (Array.map line_of hot_keys) (fun k s ->
            match refs.(k) with
            | Some r -> r = s
            | None ->
                refs.(k) <- Some s;
                answer_of_line s <> None),
        fun () -> Array.fill refs 0 n None )
    end
  in
  let c = sender.make () in
  let round () = sender.send c ~on_latency:(fun _ _ -> ()) (Array.init n Fun.id) in
  ignore (round ());
  reset ();
  if not (Array.for_all Fun.id (round ())) then failwith "hot warm-up: a key did not answer";
  Client.close c;
  { hp = p; sender }

let hot a ~binary =
  let setup () = hot_setup a ~binary and teardown h = stop h.hp in
  let before = sample_setups 4 setup teardown in
  let { hp; sender } = setup () in
  let cdf = L.zipf_cdf ~k:(Array.length hot_keys) ~s:0. in
  let light, loaded, probes, cap, rss, scpu, ccpu =
    open_phases a ~pids:[ hp.pid ] ~sender ~cdf hot_shape
  in
  stop hp;
  let after = sample_setups 4 setup teardown in
  let runs = light :: loaded :: probes in
  {
    attempted = sum_sent runs;
    failed = sum_bad runs;
    checks_ok = List.for_all run_consistent runs;
    setups = before @ after;
    light = [ light ];
    loaded = [ loaded ];
    server_cpu_us = scpu;
    client_cpu_us = ccpu;
    rss_mb = rss;
    table =
      [
        ("capacity_rps", cap, "1/s");
        ("capacity_probes", float_of_int (List.length probes), "count");
        ("light_offered_rps", light.offered, "1/s");
        ("loaded_offered_rps", loaded.offered, "1/s");
      ];
  }

(* routed: two backends with small caches behind psc route at R=2 with
   binary backend links; zipf keys over a keyspace four times a
   backend's cache, facet queries included, so hits, misses, evictions
   and populate hints all occur *)
let routed_keys = L.queries ~keyspace:96

let routed_shape = { light_rps = 300.; loaded_rps = 800.; limit_ms = 50. }

let backend_args = serve_args @ [ "--cache-size"; "24" ]

type cluster = { backends : proc list; router : proc }

let cluster_setup a =
  let backends = List.init 2 (fun _ -> spawn a.psc "serve" backend_args) in
  let router =
    spawn a.psc "route"
      (List.concat_map (fun b -> [ "--backend"; Addr.to_string b.addr ]) backends
      @ [ "--replicas"; "2"; "--codec"; "binary" ])
  in
  (* warm-up: every key once through the router *)
  let c = v1_client router.addr in
  Array.iter
    (fun q ->
      match Client.request c (line_of q) with
      | Ok s when answer_of_line s <> None -> ()
      | _ -> failwith "routed warm-up: a key did not answer")
    routed_keys;
  Client.close c;
  { backends; router }

let cluster_stop cl = List.iter stop (cl.router :: cl.backends)

(* every routed answer is checked against the key's in-process
   reference, computed before set-up *)
let routed_sender cl refs =
  json_sender
    ~make:(fun () -> json_client cl.router.addr)
    (Array.map line_of routed_keys)
    (fun k s -> matches refs.(k) s)

let routed_refs () = Array.map (fun q -> snd (reference q)) routed_keys

let routed a =
  let refs = routed_refs () in
  let setup () = cluster_setup a in
  let before = sample_setups 3 setup cluster_stop in
  let cl = setup () in
  let sender = routed_sender cl refs in
  let cdf = L.zipf_cdf ~k:(Array.length routed_keys) ~s:1.0 in
  let pids = List.map (fun p -> p.pid) (cl.router :: cl.backends) in
  let light, loaded, probes, cap, rss, scpu, ccpu = open_phases a ~pids ~sender ~cdf routed_shape in
  cluster_stop cl;
  let after = sample_setups 3 setup cluster_stop in
  let runs = light :: loaded :: probes in
  {
    attempted = sum_sent runs;
    failed = sum_bad runs;
    checks_ok = List.for_all run_consistent runs;
    setups = before @ after;
    light = [ light ];
    loaded = [ loaded ];
    server_cpu_us = scpu;
    client_cpu_us = ccpu;
    rss_mb = rss;
    table =
      [
        ("capacity_rps", cap, "1/s");
        ("capacity_probes", float_of_int (List.length probes), "count");
      ];
  }

(* latency percentile over a workload's runs, windowed (see Stats) *)
let lat runs p = ms (S.windowed_percentile (pooled runs) p)

(* The gated metrics: the ones that stay within their bound across runs
   on a shared 2-vCPU VM (see CATALOGUE.md for the measured spreads of
   the others, which are printed but not gated). *)
let end_to_end o =
  [
    m "setup_s" "s" (S.median (List.map snd o.setups));
    m "server_cpu_us_per_req" "us" o.server_cpu_us;
    m "peak_rss_mb" "MB" o.rss_mb;
  ]

(* median, the tail percentiles the sample count supports, the count,
   and the generator's lag *)
let latency_rows point runs =
  let n = Array.length (pooled runs) in
  List.filter_map
    (fun p ->
      if p = 50. || Option.fold ~none:false ~some:(fun t -> t >= p) (S.tail_percentile n) then
        Some (Printf.sprintf "p%.0f_ms_%s" p point, lat runs p, "ms")
      else None)
    [ 50.; 90.; 99. ]
  @ [
      (point ^ " samples", float_of_int n, "count");
      (point ^ " lag_p99_ms", ms (S.percentile (lags runs) 99.), "ms");
    ]

let report o =
  [
    ("setup_wall_s", S.median (List.map fst o.setups), "s");
    ("client_cpu_us_per_req", o.client_cpu_us, "us");
  ]
  @ latency_rows "light" o.light
  @ latency_rows "loaded" o.loaded
  @ o.table
  @ [
      ("failed_share", S.failed_share ~attempted:o.attempted ~failed:o.failed, "ratio");
      ("attempted", float_of_int o.attempted, "count");
    ]

(* ------------------------------------------------------------------ *)
(* the traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

let span_durations records name =
  List.filter_map
    (function
      | Obs.Span_record { name = n; start; stop; _ } when n = name -> Some (stop -. start)
      | _ -> None)
    records

(* mean seconds per call of a span that wraps [per_span] calls *)
let per_call records ?(per_span = 1) name =
  match span_durations records name with
  | [] -> 0.
  | ds -> List.fold_left ( +. ) 0. ds /. float_of_int (per_span * List.length ds)

let median_span records name = S.median (span_durations records name)

(* [k] calls of [f] under one span; returns words allocated per call *)
let reps k name f =
  let a0 = Gc.allocated_bytes () in
  Obs.with_span name (fun _ ->
      for _ = 1 to k do
        ignore (Sys.opaque_identity (f ()))
      done);
  (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) /. float_of_int k

(* The client's transport-id handling on a JSON connection, rebuilt from
   public functions: parse the request and render it with an id
   injected, then parse the answer and render it with the id stripped. *)
let inject_strip (line, answer) =
  (match Jsonl.of_string_opt line with
  | Some (Jsonl.Obj fields) ->
      ignore (Jsonl.to_string (Jsonl.Obj (("id", Jsonl.int 0x40000001) :: List.remove_assoc "id" fields)))
  | _ -> ());
  match Jsonl.of_string_opt answer with
  | Some (Jsonl.Obj (("id", _) :: rest)) -> ignore (Jsonl.to_string (Jsonl.Obj rest))
  | _ -> ()

let probe_keys qs = Array.sub qs 0 (min 16 (Array.length qs))

(* In-process replay of the workload's distinct keys through each
   layer's public functions, with nested spans.  Construction and
   elimination run once per key over the whole stream; the microsecond
   serve-path and codec calls run [k] times per key over the probe
   subset (the keys the wire probes use). *)
let replay qs ~k =
  let sims = ref 0 and removed = ref 0 in
  Array.iter
    (fun q ->
      let spec = spec_of_query q in
      Obs.with_span "replay.cold" (fun _ ->
          let c = Obs.with_span "core.build" (fun _ -> E.build spec) in
          sims := !sims + T.Complex.num_simplices c;
          ignore (Obs.with_span "engine.key" (fun _ -> Key.of_complex c));
          let core, rem = Obs.with_span "topology.precollapse" (fun _ -> T.Collapse.reduce c) in
          removed := !removed + rem;
          ignore (Obs.with_span "topology.eliminate" (fun _ -> T.Homology.reduced_betti core));
          ignore (Obs.with_span "topology.eliminate_direct" (fun _ -> T.Homology.reduced_betti c));
          ignore (Obs.with_span "engine.miss" (fun _ -> E.eval (E.create ~domains:0 ()) spec))))
    qs;
  Gc.full_major ();
  let live_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576. in
  let we = E.create ~domains:0 () in
  let json = Serve.handle_line we in
  let serve_alloc = ref [] and codec_alloc = ref [] in
  Array.iter
    (fun q ->
      let spec = spec_of_query q and line = line_of q in
      ignore (json line);
      Obs.with_span "replay.hot" (fun _ ->
          ignore (reps k "jsonl.parse" (fun () -> Jsonl.of_string line));
          serve_alloc := reps k "serve.handle" (fun () -> json line) :: !serve_alloc;
          let answer = Jsonl.of_string (json line) in
          ignore (reps k "jsonl.render" (fun () -> Jsonl.to_string answer));
          ignore (reps k "engine.hit" (fun () -> E.eval we spec));
          let rq = { Codec.id = 7; want = Codec.Both; query = q } in
          ignore (reps k "codec.encode" (fun () -> Codec.encode_request rq));
          let payload = Codec.encode_request rq in
          codec_alloc := reps k "codec.handle" (fun () -> Codec.handle ~json we payload) :: !codec_alloc;
          let rep = Codec.handle ~json we payload in
          ignore (reps k "codec.decode" (fun () -> Codec.decode_reply rep));
          ignore (reps k "client.json_encode" (fun () -> line_of q));
          let injected =
            match Jsonl.of_string line with
            | Jsonl.Obj fields -> Jsonl.to_string (Jsonl.Obj (("id", Jsonl.int 0x40000001) :: fields))
            | _ -> line
          in
          let pair = (line, json injected) in
          ignore (reps k "client.id_inject_strip" (fun () -> inject_strip pair))))
    (probe_keys qs);
  E.shutdown we;
  (!sims, !removed, live_mb, S.median !serve_alloc, S.median !codec_alloc)

(* one request in flight, unloaded, over warm keys: JSON through a
   pipelining client (ids injected and stripped), binary through
   eval_many *)
let rtt_probes addr qs ~rounds =
  let jc = json_client addr and bc = binary_client addr in
  let lines = Array.map line_of qs in
  Array.iter (fun l -> ignore (Client.request jc l)) lines;
  for _ = 1 to rounds do
    Array.iteri
      (fun i q ->
        ignore (Obs.with_span "client.rtt_json" (fun _ -> Client.request jc lines.(i)));
        ignore (Obs.with_span "client.rtt_binary" (fun _ -> Client.eval_many bc [ (Codec.Both, q) ])))
      qs
  done;
  Client.close jc;
  Client.close bc

(* an in-process router over the live backends, R=2 with binary links
   as psc route runs in the routed workload *)
let router_probes addrs qs ~rounds =
  let populate = Obs.counter "net.router.replica.populate" in
  let p0 = Obs.counter_value populate in
  let r = Router.create ~replication:2 ~codec:`Binary ~retries:0 ~timeout_ms:10_000 addrs in
  let lines = Array.map line_of qs in
  Array.iter (fun l -> ignore (Router.route r l)) lines;
  let direct = List.map binary_client addrs |> Array.of_list in
  for _ = 1 to rounds do
    Array.iter
      (fun l ->
        ignore (Obs.with_span "router.route" (fun _ -> Router.route r l));
        let owner = List.hd (Router.preference r l) in
        ignore (Obs.with_span "router.direct" (fun _ -> Client.request direct.(owner) l)))
      lines
  done;
  Array.iter Client.close direct;
  Router.stop r;
  let qs32 = L.queries ~keyspace:32 in
  let facet_lines, spec_lines =
    Array.to_list qs32
    |> List.partition (function Codec.Facets _ -> true | _ -> false)
    |> fun (f, s) -> (List.map line_of f, List.map line_of s)
  in
  ignore
    (reps 200 "router.shard_key_facets" (fun () -> List.iter (fun l -> ignore (Router.shard_key l)) facet_lines));
  ignore
    (reps 200 "router.shard_key_spec" (fun () -> List.iter (fun l -> ignore (Router.shard_key l)) spec_lines));
  (Obs.counter_value populate - p0, List.length facet_lines, List.length spec_lines)

(* the engine's own counters, summed over backends *)
let backend_stats addrs =
  List.fold_left
    (fun (h, mi, ev, b, c) addr ->
      let cl = v1_client addr in
      let r = Client.request cl {|{"op":"stats"}|} in
      Client.close cl;
      let st =
        match r with
        | Ok s -> Option.bind (Jsonl.of_string_opt s) (Jsonl.member "stats")
        | Error _ -> None
      in
      let num f =
        match Option.bind st (Jsonl.member f) with Some (Jsonl.Num x) -> x | _ -> 0.
      in
      (h +. num "hits", mi +. num "misses", ev +. num "evictions", b +. num "build_s", c +. num "compute_s"))
    (0., 0., 0., 0., 0.) addrs

let ratio a b = if b > 0. then a /. b else 0.

(* what the traced run needs from a workload: its live servers after a
   wire phase run twice (untraced, then traced), and its key stream *)
type traced = {
  keys : Codec.query array;
  serve_addrs : Addr.t list;  (** the engine backends *)
  untraced : run;
  traced : run;
  cpu_untraced : float;  (** generator CPU, µs per request *)
  cpu_traced : float;
  wire_records : Obs.record list;
  attempted_t : int;
  failed_t : int;
  teardown : unit -> unit;
}

(* The same wire phase twice: untraced, then with the generator's spans
   recorded in memory, each with the generator's CPU per request.
   [servers] names the live engine backends afterwards and how to stop
   them. *)
let traced_wire ~keys ~servers f =
  let cpu_per (r, _, self) = (r, S.cpu_us_per_req ~cpu_s:self ~requests:r.sent) in
  let untraced, cpu_untraced = cpu_per (with_cpu [] (fun () -> f ~phase:1)) in
  Obs.clear_records ();
  Obs.set_sink Obs.Memory;
  tracing := true;
  let traced, cpu_traced = cpu_per (with_cpu [] (fun () -> f ~phase:1)) in
  tracing := false;
  Obs.set_sink Obs.Null;
  let wire_records = Obs.records () in
  Obs.clear_records ();
  let serve_addrs, teardown = servers () in
  {
    keys;
    serve_addrs;
    untraced;
    traced;
    cpu_untraced;
    cpu_traced;
    wire_records;
    attempted_t = untraced.sent + traced.sent;
    failed_t = untraced.bad + traced.bad;
    teardown;
  }

let trace_workload a =
  let phase_s = a.seconds /. 4. in
  match a.workload with
  | "cold-solve" ->
      let grid = cold_grid () in
      let check k s = matches grid.(k).expect s in
      let lines = Array.map (fun p -> p.line) grid in
      let order = shuffle (Random.State.make [| a.seed; 0 |]) (Array.init (Array.length grid) Fun.id) in
      let live = ref None in
      (* three passes, each on a fresh server; the last server stays up
         (warm with the whole grid) for the probes *)
      let pass ~phase:_ =
        let runs =
          List.init 3 (fun _ ->
              Option.iter stop !live;
              let p = spawn a.psc "serve" serve_args in
              live := Some p;
              closed_loop (json_sender ~make:(fun () -> v1_client p.addr) lines check) ~callers:1 order)
        in
        let wall = List.fold_left (fun acc r -> acc +. r.wall) 0. runs in
        {
          sent = sum_sent runs;
          bad = sum_bad runs;
          lats = pooled runs;
          lags = lags runs;
          wall;
          offered = float_of_int (sum_sent runs) /. wall;
        }
      in
      traced_wire ~keys:(Array.map (fun p -> p.q) grid)
        ~servers:(fun () ->
          let p = Option.get !live in
          ([ p.addr ], fun () -> stop p))
        pass
  | "hot-json" | "hot-binary" ->
      let h = hot_setup a ~binary:(a.workload = "hot-binary") in
      let cdf = L.zipf_cdf ~k:(Array.length hot_keys) ~s:0. in
      traced_wire ~keys:hot_keys
        ~servers:(fun () -> ([ h.hp.addr ], fun () -> stop h.hp))
        (fun ~phase ->
          open_loop h.sender ~cdf ~rate:hot_shape.light_rps ~duration:phase_s ~seed:a.seed ~phase)
  | _ ->
      let refs = routed_refs () in
      let cl = cluster_setup a in
      let sender = routed_sender cl refs in
      let cdf = L.zipf_cdf ~k:(Array.length routed_keys) ~s:1.0 in
      traced_wire ~keys:routed_keys
        ~servers:(fun () -> (List.map (fun b -> b.addr) cl.backends, fun () -> cluster_stop cl))
        (fun ~phase ->
          open_loop sender ~cdf ~rate:routed_shape.light_rps ~duration:phase_s ~seed:a.seed ~phase)

let us x = 1e6 *. x

let write_trace a records =
  (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin
    (Printf.sprintf "perfbench/out/trace-%s-%d.jsonl" a.workload a.seed)
    (fun oc ->
      List.iter (fun r -> output_string oc (Jsonl.to_string (Obs.record_to_json r) ^ "\n")) records)

let per_layer a =
  let tw = trace_workload a in
  let h, mi, ev, b_s, c_s = backend_stats tw.serve_addrs in
  let k = if Array.length tw.keys <= 16 then 300 else 60 in
  Obs.clear_records ();
  Obs.set_sink Obs.Memory;
  let sims, removed, live_mb, serve_alloc, codec_alloc = replay tw.keys ~k in
  let pk = probe_keys tw.keys in
  rtt_probes (List.hd tw.serve_addrs) pk ~rounds:25;
  let populate, n_facets, n_specs = router_probes tw.serve_addrs pk ~rounds:25 in
  Obs.set_sink Obs.Null;
  let recs = Obs.records () in
  Obs.clear_records ();
  tw.teardown ();
  let call ?(per_span = k) name = per_call recs ~per_span name in
  let parse = us (call "jsonl.parse")
  and handle = us (call "serve.handle")
  and render = us (call "jsonl.render")
  and hit = us (call "engine.hit")
  and cenc = us (call "codec.encode")
  and chandle = us (call "codec.handle")
  and cdec = us (call "codec.decode")
  and jenc = us (call "client.json_encode")
  and inj = us (call "client.id_inject_strip")
  and rtt_json = us (median_span recs "client.rtt_json")
  and rtt_bin = us (median_span recs "client.rtt_binary")
  and route = us (median_span recs "router.route")
  and direct = us (median_span recs "router.direct") in
  let gap = rtt_json -. rtt_bin in
  let g_enc = jenc -. cenc
  and g_handle = handle -. parse -. render -. hit
  and g_codec = -.(chandle -. hit +. cdec) in
  let named = g_enc +. inj +. parse +. g_handle +. render +. g_codec in
  (* the generator's own stages, per request of the traced wire run *)
  let wire name =
    us (List.fold_left ( +. ) 0. (span_durations tw.wire_records name))
    /. float_of_int (max 1 tw.traced.sent)
  in
  let metrics =
    [
      m "core.build_ms" "ms" (ms (per_call recs ~per_span:1 "core.build"));
      m "core.simplices" "count" (float_of_int sims);
      m "engine.key_ms" "ms" (ms (per_call recs ~per_span:1 "engine.key"));
      m "topology.precollapse_ms" "ms" (ms (per_call recs ~per_span:1 "topology.precollapse"));
      m "topology.precollapse_yield" "ratio" (ratio (float_of_int removed) (float_of_int sims));
      m "topology.eliminate_ms" "ms" (ms (per_call recs ~per_span:1 "topology.eliminate"));
      m "topology.eliminate_direct_ms" "ms" (ms (per_call recs ~per_span:1 "topology.eliminate_direct"));
      m "engine.miss_ms" "ms" (ms (per_call recs ~per_span:1 "engine.miss"));
      m "engine.build_share" "ratio" (ratio b_s (b_s +. c_s));
      m "topology.live_heap_mb" "MB" live_mb;
      m "jsonl.parse_us" "us" parse;
      m "serve.handle_us" "us" handle;
      m "jsonl.render_us" "us" render;
      m "serve.alloc_words" "words" serve_alloc;
      m "engine.hit_us" "us" hit;
      m "codec.encode_us" "us" cenc;
      m "codec.handle_us" "us" chandle;
      m "codec.decode_us" "us" cdec;
      m "codec.alloc_words" "words" codec_alloc;
      m "client.rtt_json_us" "us" rtt_json;
      m "client.rtt_binary_us" "us" rtt_bin;
      m "net.transport_json_us" "us" (rtt_json -. handle);
      m "net.transport_binary_us" "us" (rtt_bin -. chandle);
      m "router.shard_key_facets_us" "us" (us (call ~per_span:(200 * n_facets) "router.shard_key_facets"));
      m "router.shard_key_spec_us" "us" (us (call ~per_span:(200 * n_specs) "router.shard_key_spec"));
      m "router.route_us" "us" route;
      m "router.hop_us" "us" (route -. direct);
      m "engine.hit_ratio" "ratio" (ratio h (h +. mi));
      m "engine.evictions" "count" ev;
      m "replica.populate" "count" (float_of_int populate);
      m "load.lag_p99_ms" "ms" (ms (S.percentile tw.untraced.lags 99.));
      m "load.offered_rps" "1/s" tw.untraced.offered;
      m "client.cpu_us_per_req" "us" tw.cpu_untraced;
      m "gap.json_minus_binary_us" "us" gap;
      m "gap.client_encode_us" "us" g_enc;
      m "gap.id_inject_strip_us" "us" inj;
      m "gap.parse_us" "us" parse;
      m "gap.handle_us" "us" g_handle;
      m "gap.render_us" "us" render;
      m "gap.codec_us" "us" g_codec;
      m "gap.transport_residual_us" "us" (gap -. named);
      m "gap.explained_share" "ratio" (ratio named gap);
      m "wire.prepare_us" "us" (wire "wire.prepare");
      m "wire.roundtrip_us" "us" (wire "wire.roundtrip");
      m "wire.check_us" "us" (wire "wire.check");
      m "trace.overhead_us_per_req" "us" (tw.cpu_traced -. tw.cpu_untraced);
    ]
  in
  (* self times and shares, over the replay and over the traced wire run *)
  List.iter
    (fun (title, rs) ->
      let st = S.self_times rs in
      let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. st in
      print_table title
        (List.concat_map
           (fun (name, s) -> [ (name ^ " self_ms", ms s, "ms"); (name ^ " share", ratio s total, "ratio") ])
           st))
    [ ("self time: in-process replay", recs); ("self time: traced wire run", tw.wire_records) ];
  print_table "json-vs-binary gap, per request"
    [
      ("rtt_json - rtt_binary", gap, "us");
      ("client encode", g_enc, "us");
      ("id inject/strip", inj, "us");
      ("parse", parse, "us");
      ("handle (dispatch, JSON side)", g_handle, "us");
      ("render", render, "us");
      ("codec (binary side, negative)", g_codec, "us");
      ("transport residual", gap -. named, "us");
      ("share explained by named stages", ratio named gap, "ratio");
    ];
  write_trace a (tw.wire_records @ recs);
  let checks_ok = run_consistent tw.untraced && run_consistent tw.traced in
  (metrics, tw.attempted_t, tw.failed_t, checks_ok)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  match parse_args Sys.argv with
  | None ->
      prerr_endline usage;
      exit 2
  | Some a ->
      if not (Sys.file_exists a.psc) then begin
        Printf.eprintf "perfbench: %s not found (build it first: dune build bin/psc.exe)\n" a.psc;
        exit 2
      end;
      List.iter (fun _ -> calibrate ()) [ 1; 2; 3; 4; 5 ];
      let metrics, attempted, failed, checks_ok =
        if a.trace then per_layer a
        else begin
          let o =
            match a.workload with
            | "cold-solve" -> cold_solve a
            | "hot-json" -> hot a ~binary:false
            | "hot-binary" -> hot a ~binary:true
            | _ -> routed a
          in
          let e2e = end_to_end o in
          print_table (a.workload ^ ": end to end")
            (List.map (fun x -> (x.name, x.value, x.unit)) e2e @ report o);
          (e2e, o.attempted, o.failed, o.checks_ok)
        end
      in
      Printf.printf "# meta %s\n"
        (Jsonl.to_string
           (Jsonl.Obj
              [
                ("workload", Jsonl.Str a.workload);
                ("seed", Jsonl.int a.seed);
                ("seconds", Jsonl.Num a.seconds);
                ("trace", Jsonl.Bool a.trace);
                ("nproc", Jsonl.int (nproc ()));
                ("commit", Jsonl.Str (git_commit ()));
                ("calibration_wall_ms", Jsonl.Num (S.median (List.map fst !calib)));
                ("calibration_cpu_ms", Jsonl.Num (S.median (List.map snd !calib)));
                ("calibration_samples", Jsonl.int (List.length !calib));
              ]));
      let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
      let correct = checks_ok && failed = 0 && attempted > 0 && finite in
      print_result ~correct ~attempted ~failed
        (List.map (fun x -> if Float.is_finite x.value then x else { x with value = -1. }) metrics);
      exit (if correct then 0 else 1)
