(* Figure 3: redo-log optimization — NVM log writes saved by
   cross-transaction combination as the persist group grows, and the LZ
   compression ratio on the combined groups.  YCSB session store (B+-tree
   key-value store, 10 K records, 50/50 read-update, Zipfian 0.99). *)

open Dudetm_harness.Harness
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Sched = Dudetm_sim.Sched
module W = Dudetm_workloads
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module Ptm = B.Ptm_intf

let groups ?(full = false) () = if full then [ 10; 100; 1_000; 10_000; 100_000 ] else [ 10; 100; 1_000; 10_000 ]

let run_one ~group ~compress =
  let cfg =
    {
      (dude_config ()) with
      Config.persist = Config.Combined { group; compress };
      plog_size = 1 lsl 23;
      vlog_capacity = 1 lsl 18;
    }
  in
  let ptm, _ = B.Dude_ptm.Stm.ptm cfg in
  (* Enough write transactions for at least two full groups. *)
  let ntxs = max 30_000 (5 * group) in
  let bench =
    {
      bname = "YCSB";
      think = 400;
      ntxs;
      static_ok = false;
      setup =
        (fun ptm ->
          let y = W.Ycsb.setup ptm ~records:10_000 ~theta:0.99 () in
          fun ~thread ~rng -> W.Ycsb.transaction_tid y ~thread ~rng);
    }
  in
  let r = run_bench ~measure_latency:true ptm bench in
  let get k = List.assoc_opt k r.counters |> Option.value ~default:0 in
  let saved =
    let win = get "combine_writes_in" and wout = get "combine_writes_out" in
    if win = 0 then 0.0 else 1.0 -. (float_of_int wout /. float_of_int win)
  in
  let ratio =
    let cin = get "compress_in_bytes" and cout = get "compress_out_bytes" in
    if cin = 0 then 0.0 else 1.0 -. (float_of_int cout /. float_of_int cin)
  in
  let p50_us = Dudetm_sim.Cycles.to_us (Stats.Latency.percentile r.latency 50.0) in
  (saved, ratio, r, p50_us)

let run ?(full = false) () =
  section "Figure 3: log combination and compression vs persist-group size\n(YCSB session store, B+-tree KV, 10K records, 50/50 read/update, Zipf 0.99)";
  Printf.printf "%-14s %22s %22s %12s %14s\n" "Group size" "NVM writes saved"
    "LZ compression ratio" "Throughput" "P50 latency";
  List.iter
    (fun group ->
      let saved, _, _, _ = run_one ~group ~compress:false in
      let _, ratio, r, p50 = run_one ~group ~compress:true in
      (* Section 5.4: combination/compression leave throughput untouched
         (flushing is not the bottleneck), but acknowledgement latency grows
         with the group size — a transaction waits for its whole group. *)
      Printf.printf "%-14d %21.1f%% %21.1f%% %12s %11.0f us\n%!" group (100.0 *. saved)
        (100.0 *. ratio) (pp_ktps r.ktps) p50;
      report_commit_latency (Printf.sprintf "group %d" group) r)
    (groups ~full ())
