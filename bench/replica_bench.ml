(* Replicated-durability experiment (extension beyond the paper's
   evaluation): what does shipping the redo log to K quorum replicas cost,
   and how fast is failover?

   The primary's Persist daemon ships each sealed group-commit record over
   simulated 10 GB/s links; transactions stay decoupled (commit returns at
   the TM commit, durability is acknowledged at the quorum watermark), so
   the replication cost the application sees is the drain tail plus
   whatever ack-waiting the workload chooses to do.  We sweep K over
   {0 (unreplicated), 1, 3, 5} at the same workload and seed, then kill
   the primary of a K=3 cluster mid-run and measure promotion: power-cut
   every replica, scan, truncate to the quorum prefix, replay.

   Gate: quorum replication at K=3 must cost no more than 15% of
   unreplicated durable throughput.  Promotion's host wall time is
   printed but never becomes a ledger row: it varies run to run. *)

open Dudetm_harness.Harness
module Sched = Dudetm_sim.Sched
module Cycles = Dudetm_sim.Cycles
module Stats = Dudetm_sim.Stats
module Config = Dudetm_core.Config
module Rep = Dudetm_replica.Replica.Make (Dudetm_tm.Tinystm)
module D = Rep.Engine
module L = Ledger

let replica_counts = [ 0; 1; 3; 5 ]

let canonical_ntxs = 1_200

let cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 20;
    nthreads = 4;
    vlog_capacity = 1 lsl 14;
    plog_size = 1 lsl 20;
    persist = Config.Combined { group = 8; compress = true };
    seed = 11;
  }

(* Counter-array workload, decoupled commits: every transaction bumps the
   root and stamps one of 1024 slots; each thread waits for quorum on its
   last transaction only. *)
let worker t ~ntxs ~thread ~committed ~last_tid =
  for _ = 1 to ntxs do
    match
      D.atomically t ~thread (fun tx ->
          let c1 = Int64.add (D.read tx 0) 1L in
          D.write tx (8 + (8 * (Int64.to_int c1 land 1023))) c1;
          D.write tx 0 c1)
    with
    | Some (_, tid) when tid > 0 ->
      incr committed;
      last_tid := max !last_tid tid
    | _ -> ()
  done

type row = {
  r_k : int;
  r_quorum : int;
  r_txs : int;
  r_cycles : int;
  r_ktps : float;
  r_degraded : bool;
  r_batches_shipped : int;
  r_retransmits : int;
  r_link_bytes : int;
}

(* One simulated run: [start], one worker thread per [cfg.nthreads]
   running [body thread], and [finish] once every worker is done. *)
let run_workers ~start body ~finish =
  Sched.run (fun () ->
      start ();
      Sched.join ~label:"workers done"
        (List.init cfg.Config.nthreads (fun th ->
             Sched.spawn (Printf.sprintf "w%d" th) (fun () -> body th)));
      finish ())

(* Unreplicated baseline: the same engine, workload and drain, no links. *)
let run_baseline ~ntxs =
  let t = D.create cfg in
  let committed = ref 0 in
  let cycles =
    run_workers
      ~start:(fun () -> D.start t)
      (fun th -> worker t ~ntxs ~thread:th ~committed ~last_tid:(ref 0))
      ~finish:(fun () ->
        D.drain t;
        D.stop t)
  in
  {
    r_k = 0;
    r_quorum = 1;
    r_txs = !committed;
    r_cycles = cycles;
    r_ktps = ktps ~txs:!committed ~cycles;
    r_degraded = false;
    r_batches_shipped = 0;
    r_retransmits = 0;
    r_link_bytes = 0;
  }

let run_replicated ~ntxs ~k =
  let c = Rep.create ~rcfg:(Rep.default_config ~nreplicas:k ()) cfg in
  let committed = ref 0 in
  let degraded = ref false in
  let quorum = function Rep.Quorum -> () | Rep.Degraded_quorum _ -> degraded := true in
  let cycles =
    run_workers
      ~start:(fun () -> Rep.start c)
      (fun th ->
        let last_tid = ref 0 in
        worker (Rep.primary c) ~ntxs ~thread:th ~committed ~last_tid;
        quorum (Rep.wait_acked c !last_tid))
      ~finish:(fun () ->
        quorum (Rep.drain c);
        Rep.stop c)
  in
  let link_bytes =
    Array.fold_left
      (fun acc (down, up) -> acc + Stats.get down "bytes_sent" + Stats.get up "bytes_sent")
      0 (Rep.link_stats c)
  in
  {
    r_k = k;
    r_quorum = Rep.quorum c;
    r_txs = !committed;
    r_cycles = cycles;
    r_ktps = ktps ~txs:!committed ~cycles;
    r_degraded = !degraded;
    r_batches_shipped = Stats.get (Rep.stats c) "batches_shipped";
    r_retransmits = Stats.get (Rep.stats c) "retransmits";
    r_link_bytes = link_bytes;
  }

(* Failover: kill a K=3 primary mid-run, then measure promotion — the
   power cut, per-replica scan, quorum truncation and replay — in both
   simulated cycles and host wall time. *)
let run_failover ~ntxs =
  let c = Rep.create ~rcfg:(Rep.default_config ~nreplicas:3 ()) cfg in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  worker (Rep.primary c) ~ntxs ~thread:th ~committed ~last_tid:(ref 0)))
         done;
         (* Let roughly half the run land, then pull the plug. *)
         Sched.advance 2_000_000;
         Sched.halt ()));
  let acked = Rep.acked c in
  let wall0 = Sys.time () in
  let prom = ref None in
  let cycles =
    Sched.run (fun () ->
        let _eng, p = Rep.promote c in
        prom := Some p)
  in
  let wall_ms = (Sys.time () -. wall0) *. 1e3 in
  let p = Option.get !prom in
  (acked, p, cycles, wall_ms)

let run ?(scale = 1.0) led =
  let ntxs = max 200 (int_of_float (float_of_int canonical_ntxs *. scale)) in
  section
    (Printf.sprintf
       "Replicated durability: quorum log shipping, %d txs x %d threads, 10 GB/s links"
       ntxs cfg.Config.nthreads);
  L.add led ~scenario:"replica" ~layer:"param"
    [ ("txs_per_thread", "txs", L.Int ntxs); ("threads", "count", L.Int cfg.Config.nthreads) ];
  let base = run_baseline ~ntxs in
  let reps = List.map (fun k -> run_replicated ~ntxs ~k) (List.tl replica_counts) in
  let rows = base :: reps in
  Printf.printf "%-10s %-8s %12s %10s %10s %12s %12s\n" "replicas" "quorum" "throughput"
    "vs K=0" "degraded" "shipped" "link MB";
  List.iter
    (fun r ->
      let rel = r.r_ktps /. base.r_ktps in
      Printf.printf "%-10d %-8s %12s %9.2fx %10s %12d %12.2f\n" r.r_k
        (Printf.sprintf "%d/%d" r.r_quorum (r.r_k + 1))
        (pp_ktps r.r_ktps) rel
        (if r.r_degraded then "YES" else "no")
        r.r_batches_shipped
        (float_of_int r.r_link_bytes /. 1048576.0);
      let scenario = Printf.sprintf "replica/k=%d" r.r_k in
      L.add led ~scenario ~layer:"bench"
        [
          ("txs", "txs", L.Int r.r_txs); ("cycles", "cycles", L.Int r.r_cycles);
          ("ktps", "ktps", L.Float r.r_ktps); ("rel_throughput", "x", L.Float rel);
          ("overhead", "frac", L.Float (1.0 -. rel));
        ];
      L.add led ~scenario ~layer:"replica"
        (L.ints "count"
           [
             ("quorum", r.r_quorum); ("degraded", Bool.to_int r.r_degraded);
             ("batches_shipped", r.r_batches_shipped); ("retransmits", r.r_retransmits);
           ]
        @ [ ("link_bytes", "bytes", L.Int r.r_link_bytes) ]))
    rows;
  L.gate led ~scenario:"replica/k=3" ~layer:"bench" "overhead" (L.At_most 0.15);
  let acked, prom, fo_cycles, fo_wall = run_failover ~ntxs in
  Printf.printf
    "failover (K=3, primary killed mid-run): acked %d -> promoted replica %d, durable \
     %d, truncated %d never-acked txs, %.1f us simulated (%.1f ms host)\n"
    acked prom.Rep.promoted prom.Rep.report.Dudetm_core.Dudetm.durable
    prom.Rep.truncated_txs (Cycles.to_us fo_cycles) fo_wall;
  L.add led ~scenario:"replica/failover" ~layer:"replica"
    [
      ("acked", "tid", L.Int acked); ("promoted", "replica", L.Int prom.Rep.promoted);
      ("durable", "tid", L.Int prom.Rep.report.Dudetm_core.Dudetm.durable);
      ("truncated_txs", "txs", L.Int prom.Rep.truncated_txs);
      ("cycles", "cycles", L.Int fo_cycles); ("sim_us", "us", L.Float (Cycles.to_us fo_cycles));
    ]
