(* The benchmark's arithmetic, kept apart from its I/O so it can be
   tested: percentiles and the sample-count rule, the failure share,
   CPU-per-request from /proc deltas, and span self times. *)

open Psph_obs

(* One percentile implementation for the whole repo: the load
   generator's. *)
let percentile = Psph_load.Loadgen.percentile

let median xs = percentile (Array.of_list xs) 50.

(* The highest of the usual reporting percentiles that still has at
   least ten samples beyond it; [None] below 20 samples. *)
let tail_percentile n =
  (* per mille, in integers: nearest rank puts ceil(p n) samples at or
     below the percentile *)
  List.find_opt (fun pm -> n - (((pm * n) + 999) / 1000) >= 10) [ 999; 990; 900; 500 ]
  |> Option.map (fun pm -> float_of_int pm /. 10.)

let window = 1000

(* The [p]th percentile of each consecutive [window]-sample chunk, in
   the order given (due time), then the median of those.  One stall
   moves one window, not the reported figure.  A trailing partial
   chunk is dropped unless it is the only one. *)
let windowed_percentile lats p =
  let n = Array.length lats in
  if n <= window then percentile lats p
  else
    median
      (List.init (n / window) (fun w ->
           percentile (Array.sub lats (w * window) window) p))

let failed_share ~attempted ~failed =
  if attempted <= 0 then 1. else float_of_int failed /. float_of_int attempted

(* Linux reports utime/stime in USER_HZ ticks, fixed at 100 by the ABI. *)
let clk_tck = 100.

(* utime + stime in ticks from the text of /proc/<pid>/stat.  Fields
   are counted after the ")" closing the command name, which may itself
   contain spaces. *)
let cpu_ticks_of_stat s =
  let i = String.rindex s ')' in
  let rest = String.sub s (i + 2) (String.length s - i - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state); utime is field 14, stime 15 *)
  int_of_string f.(11) + int_of_string f.(12)

let seconds_of_ticks ticks = float_of_int ticks /. clk_tck

(* CPU seconds spent over a phase, per request answered in it, in µs;
   0 when nothing was answered. *)
let cpu_us_per_req ~cpu_s ~requests =
  if requests <= 0 then 0. else cpu_s *. 1e6 /. float_of_int requests

(* CPU seconds between two [Unix.times] samples: this process's own,
   plus that of the children reaped in between (getrusage, so the
   figure is not rounded to clock ticks). *)
let cpu_s_between (a : Unix.process_times) (b : Unix.process_times) =
  b.tms_utime -. a.tms_utime +. (b.tms_stime -. a.tms_stime)
  +. (b.tms_cutime -. a.tms_cutime)
  +. (b.tms_cstime -. a.tms_cstime)

(* VmHWM (peak resident set) in kB from the text of /proc/<pid>/status. *)
let vm_hwm_kb_of_status s =
  String.split_on_char '\n' s
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             int_of_string_opt
               (String.trim
                  (let v = String.trim v in
                   String.sub v 0 (String.index v ' ')))
         | _ -> None)

(* Self time of each span: its duration minus the part of it that its
   child spans cover.  Children may overlap (parallel work), so it is
   the union of their intervals that is subtracted, clipped to the
   parent.  Returns (name, self seconds) summed per span name, in first
   appearance order. *)
let self_times records =
  let spans =
    List.filter_map
      (function
        | Obs.Span_record { name; id; parent; start; stop; _ } ->
            Some (name, id, parent, start, stop)
        | Obs.Event_record _ -> None)
      records
  in
  let children = Hashtbl.create 64 in
  List.iter
    (fun (_, _, parent, start, stop) ->
      Option.iter (fun p -> Hashtbl.add children p (start, stop)) parent)
    spans;
  let covered start stop kids =
    let kids =
      List.sort compare
        (List.filter_map
           (fun (a, b) ->
             let a = Float.max a start and b = Float.min b stop in
             if b > a then Some (a, b) else None)
           kids)
    in
    fst
      (List.fold_left
         (fun (total, last) (a, b) ->
           let a = Float.max a last in
           if b > a then (total +. (b -. a), b) else (total, last))
         (0., neg_infinity) kids)
  in
  let order = ref [] and acc = Hashtbl.create 16 in
  List.iter
    (fun (name, id, _, start, stop) ->
      let self =
        stop -. start -. covered start stop (Hashtbl.find_all children id)
      in
      match Hashtbl.find_opt acc name with
      | Some s -> Hashtbl.replace acc name (s +. self)
      | None ->
          order := name :: !order;
          Hashtbl.replace acc name self)
    spans;
  List.rev_map (fun n -> (n, Hashtbl.find acc n)) !order
