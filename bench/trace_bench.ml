(* Trace-driven profile of the pipeline (extension beyond the paper's
   figures): run the canonical KV workload under cycle-accurate tracing at
   1 and 16 GB/s, print where each pipeline stage spends its cycles, emit
   the machine-readable BENCH_trace.json summary, and compare every
   phase's exact span count and total cycles against the checked-in
   baseline — the simulation is deterministic, so any drift is a real
   change and fails the run. *)

open Dudetm_harness.Harness
module Trace = Dudetm_trace.Trace

(* Fixed canonical configuration: the baseline comparison must not depend
   on --scale, and a 2000-transaction run keeps the smoke step fast. *)
let canonical_ntxs = 2_000

let profile ~bandwidth =
  let ptm = make_system ~nthreads:4 ~latency:1000 ~bandwidth Dude in
  Trace.enable ~capacity:65536 ();
  let r = run_bench ptm (kv_bench ~ntxs:canonical_ntxs ()) in
  let phases = Trace.phases () in
  let accts = Trace.nvm_accts () in
  let summary = Trace.summary_json ~total_cycles:r.run_cycles () in
  let violations = Trace.validate () in
  Trace.disable ();
  (r, phases, accts, summary, violations)

let baseline_path () =
  match Sys.getenv_opt "DUDETM_TRACE_BASELINE" with
  | Some p -> p
  | None -> Filename.concat "bench" "trace_baseline.tsv"

(* Baseline format: one "phase<TAB>count<TAB>total cycles" line per phase
   of the 1 GB/s run, in profile order; '#' comments.  The same line
   format is what the gate prints for the current profile. *)
let phase_line p =
  Printf.sprintf "%s.%s\t%d\t%d" p.Trace.ph_cat p.Trace.ph_name p.Trace.ph_count
    p.Trace.ph_total

let load_baseline path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let utilization accts total =
  List.map
    (fun a ->
      (a.Trace.nv_thread, 100.0 *. float_of_int a.Trace.nv_cycles /. float_of_int (max 1 total)))
    accts

let run ?scale:(_ = 1.0) () =
  section
    (Printf.sprintf "Trace profile: KV on DUDETM, %d txs, 4 threads, 1 vs 16 GB/s"
       canonical_ntxs);
  let r1, ph1, ac1, summary, v1 = profile ~bandwidth:1.0 in
  let r16, ph16, _, _, v16 = profile ~bandwidth:16.0 in
  let pct total c = 100.0 *. float_of_int c /. float_of_int (max 1 total) in
  Printf.printf "%-24s %14s %7s %14s %7s\n" "phase" "cyc @1GB/s" "%wall" "cyc @16GB/s"
    "%wall";
  List.iter
    (fun p ->
      let key = p.Trace.ph_cat ^ "." ^ p.Trace.ph_name in
      let c16 =
        List.find_opt (fun q -> q.Trace.ph_cat ^ "." ^ q.Trace.ph_name = key) ph16
        |> Option.fold ~none:0 ~some:(fun q -> q.Trace.ph_total)
      in
      Printf.printf "%-24s %14d %6.1f%% %14d %6.1f%%\n" key p.Trace.ph_total
        (pct r1.run_cycles p.Trace.ph_total)
        c16
        (pct r16.run_cycles c16))
    ph1;
  Printf.printf "wall cycles: %d @1GB/s, %d @16GB/s\n" r1.run_cycles r16.run_cycles;
  report_commit_latency "KV @1GB/s" r1;
  report_commit_latency "KV @16GB/s" r16;
  List.iter
    (fun (name, u) -> Printf.printf "NVM utilization @1GB/s  %-12s %5.1f%%\n" name u)
    (utilization ac1 r1.run_cycles);
  let violations = v1 @ v16 in
  if violations <> [] then begin
    List.iter (fun v -> Printf.printf "trace violation: %s\n" v) violations;
    exit 1
  end;
  write_artifact "BENCH_trace.json" summary;
  (* Exact per-phase gate against the checked-in baseline (1 GB/s run): the
     simulation is deterministic, so the profile must reproduce every
     phase's span count and total cycles.  A missing baseline fails too —
     a gate that cannot read its reference has checked nothing. *)
  let path = baseline_path () in
  match load_baseline path with
  | exception Sys_error e ->
    Printf.printf
      "trace regression check: FAIL: cannot read baseline (%s); run from the repo root or \
       set DUDETM_TRACE_BASELINE\n"
      e;
    exit 1
  | base ->
    let current = List.map phase_line ph1 in
    List.iter
      (fun l ->
        Printf.printf "%s %s\n" (if List.mem l base then "ok        " else "REGRESSION") l)
      current;
    List.iter
      (fun l -> if not (List.mem l current) then Printf.printf "MISSING    %s\n" l)
      base;
    if current <> base then begin
      Printf.printf
        "trace regression check: FAIL: the 1 GB/s profile differs from %s (lines: phase, \
         count, total cycles)\n"
        path;
      exit 1
    end
    else
      Printf.printf "trace regression check: all %d phases match %s exactly\n"
        (List.length base) path

let tiny () =
  Trace.enable ~capacity:4096 ();
  ignore (run_bench (make_system Dude) (kv_bench ~ntxs:400 ()));
  Trace.disable ()
