(* Trace-driven profile of the pipeline (extension beyond the paper's
   figures): run the canonical KV workload under cycle-accurate tracing at
   1 and 16 GB/s and print where each pipeline stage spends its cycles.
   Every phase's span count, total, max, p50 and p99, the per-thread and
   per-device NVM accounting and the ring-occupancy series become ledger
   rows; the simulation is deterministic, so the committed ledger pins
   them exactly and any drift is a real change. *)

open Dudetm_harness.Harness
module Trace = Dudetm_trace.Trace
module L = Ledger

(* Fixed canonical configuration: the ledger rows must not depend on
   --scale, and a 2000-transaction run keeps the smoke step fast. *)
let canonical_ntxs = 2_000

let profile led ~bandwidth =
  let ptm = make_system ~nthreads:4 ~latency:1000 ~bandwidth Dude in
  Trace.enable ~capacity:65536 ();
  let r = run_bench ptm (kv_bench ~ntxs:canonical_ntxs ()) in
  let phases = Trace.phases () in
  let accts = Trace.nvm_accts () in
  let violations = Trace.validate () in
  let scenario = Printf.sprintf "trace/bw=%g" bandwidth in
  let add = L.add led ~scenario in
  let p q = Dudetm_sim.Stats.Latency.percentile r.commit_latency q in
  add ~layer:"bench"
    (L.ints "cycles"
       [
         ("run_cycles", r.run_cycles); ("commit_p50", p 50.0); ("commit_p95", p 95.0);
         ("commit_p99", p 99.0);
       ]);
  List.iter
    (fun { Trace.ph_cat; ph_name = n; ph_count; ph_total; ph_max; ph_p50; ph_p99 } ->
      add ~layer:ph_cat
        (L.ints "spans" [ (n ^ ".count", ph_count) ]
        @ L.ints "cycles"
            [
              (n ^ ".total", ph_total); (n ^ ".max", ph_max); (n ^ ".p50", ph_p50);
              (n ^ ".p99", ph_p99);
            ]))
    phases;
  (* Channel accounting per NVM-issuing thread and per device (the run has
     no replication links). *)
  let acct layer name bytes cycles ops =
    let util = float_of_int cycles /. float_of_int (max 1 r.run_cycles) in
    add ~layer
      [
        (name ^ ".bytes", "bytes", L.Int bytes); (name ^ ".cycles", "cycles", L.Int cycles);
        (name ^ ".ops", "count", L.Int ops); (name ^ ".util", "frac", L.Float util);
      ]
  in
  List.iter
    (fun a -> acct "nvm" ("thread:" ^ a.Trace.nv_thread) a.nv_bytes a.nv_cycles a.nv_ops)
    accts;
  List.iter
    (fun a -> acct "nvm" ("device:" ^ a.Trace.nd_dev) a.nd_bytes a.nd_cycles a.nd_ops)
    (Trace.nvm_dev_accts ());
  (* Ring occupancy samples, keyed by index (timestamps may repeat). *)
  add ~layer:"plog"
    (L.ints "bytes"
       (List.mapi
          (fun i (ts, v) -> (Printf.sprintf "used[%d]@%d" i ts, v))
          (Trace.counter_series ~cat:"plog" "used")));
  add ~layer:"trace"
    (L.ints "count"
       [
         ("events", Trace.events ()); ("dropped", Trace.dropped ());
         ("violations", List.length violations);
       ]);
  L.gate led ~scenario ~layer:"trace" "violations" (L.Exactly 0.0);
  Trace.disable ();
  (r, phases, accts, violations)

let run ?scale:(_ = 1.0) led =
  section
    (Printf.sprintf "Trace profile: KV on DUDETM, %d txs, 4 threads, 1 vs 16 GB/s"
       canonical_ntxs);
  let r1, ph1, ac1, v1 = profile led ~bandwidth:1.0 in
  let r16, ph16, _, v16 = profile led ~bandwidth:16.0 in
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
    (fun a ->
      Printf.printf "NVM utilization @1GB/s  %-12s %5.1f%%\n" a.Trace.nv_thread
        (pct r1.run_cycles a.Trace.nv_cycles))
    ac1;
  List.iter (fun v -> Printf.printf "trace violation: %s\n" v) (v1 @ v16)

let tiny () =
  Trace.enable ~capacity:4096 ();
  ignore (run_bench (make_system Dude) (kv_bench ~ntxs:400 ()));
  Trace.disable ()
