(* Tests for the benchmark's arithmetic (perfbench/stats.ml). *)

open Psph_obs
module S = Perfbench_stats.Stats

let fails = ref 0

let check name cond =
  if not cond then begin
    incr fails;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let span ?parent id name start stop =
  Obs.Span_record { name; id; parent; start; stop; attrs = [] }

let () =
  (* sample-count rule: ten samples beyond the reported percentile *)
  check "tail 19" (S.tail_percentile 19 = None);
  check "tail 20" (S.tail_percentile 20 = Some 50.);
  check "tail 100" (S.tail_percentile 100 = Some 90.);
  check "tail 999" (S.tail_percentile 999 = Some 90.);
  check "tail 1000" (S.tail_percentile 1000 = Some 99.);
  check "tail 10000" (S.tail_percentile 10000 = Some 99.9);
  (* percentiles: nearest rank *)
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50" (close (S.percentile a 50.) 50.);
  check "p99" (close (S.percentile a 99.) 99.);
  check "median" (close (S.median [ 3.; 1.; 2. ]) 2.);
  (* windowed p99: a stall confined to one window does not move it *)
  let lats = Array.init 5000 (fun i -> if i < 1000 then 100. else float_of_int (i mod 1000) /. 1000.) in
  check "windowed ignores one bad window" (close (S.windowed_percentile lats 99.) 0.989);
  check "windowed short = plain" (close (S.windowed_percentile a 99.) 99.);
  let lats = Array.init 2500 (fun i -> float_of_int (i mod 1000)) in
  check "windowed drops partial" (close (S.windowed_percentile lats 50.) 499.);
  (* failure share *)
  check "failed 0" (close (S.failed_share ~attempted:10 ~failed:0) 0.);
  check "failed 1/4" (close (S.failed_share ~attempted:4 ~failed:1) 0.25);
  check "failed nothing attempted" (close (S.failed_share ~attempted:0 ~failed:0) 1.);
  (* /proc parsing and CPU per request *)
  let stat =
    "4242 (psc serve (x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
     150 50 0 0 20 0 5 0 1000 100000 2000"
  in
  check "stat ticks" (S.cpu_ticks_of_stat stat = 200);
  check "ticks to seconds" (close (S.seconds_of_ticks 250) 2.5);
  check "cpu per req"
    (close (S.cpu_us_per_req ~cpu_s:(S.seconds_of_ticks (300 - 100)) ~requests:1000) 2000.);
  check "cpu per req none" (close (S.cpu_us_per_req ~cpu_s:0.05 ~requests:0) 0.);
  let times u s cu cs = { Unix.tms_utime = u; tms_stime = s; tms_cutime = cu; tms_cstime = cs } in
  check "cpu between: self plus reaped children"
    (close (S.cpu_s_between (times 1. 0.5 2. 0.25) (times 1.25 0.5 2.5 0.5)) 1.);
  check "vmhwm"
    (S.vm_hwm_kb_of_status "Name:\tpsc\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n"
    = Some 5120);
  check "vmhwm absent" (S.vm_hwm_kb_of_status "Name:\tpsc\n" = None);
  (* self time: duration minus the union of child intervals *)
  let recs =
    [
      span 1 "root" 0. 10.;
      span ~parent:1 2 "a" 1. 4.;
      span ~parent:1 3 "b" 3. 6.;
      span ~parent:2 4 "leaf" 2. 3.;
      span ~parent:1 5 "a" 9. 12.;
    ]
  in
  let st = S.self_times recs in
  check "self root" (close (List.assoc "root" st) 4.);
  check "self a (summed, child subtracted)" (close (List.assoc "a" st) 5.);
  check "self b" (close (List.assoc "b" st) 3.);
  check "self leaf" (close (List.assoc "leaf" st) 1.);
  check "self order" (List.map fst st = [ "root"; "a"; "b"; "leaf" ]);
  if !fails > 0 then exit 1 else print_endline "perfbench stats: all checks passed"
