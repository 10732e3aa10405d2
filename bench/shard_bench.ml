(* Shard-scaling and persist-tail experiment (extension beyond the paper's
   figures): the sharded engine's end-to-end durable throughput and
   commit-latency tail, same partitioned KV workload and seed throughout.

   Part 1 runs 1/2/4/8 regions at 0/5/20% cross-shard transactions (one
   shard has no cross-shard path, so it runs at 0% only).  At 0%
   cross-shard every region's Persist/Reproduce pipeline runs
   independently, so throughput should scale with shard count — the gate
   wants 8 shards >= 4x one shard.  Cross-shard transactions reintroduce
   coupling (shared gtid lock, sibling-gated replay), so the 20% column
   shows the crossover where coordination eats the scaling.  The second
   gate keeps commit p99/p50 at one shard <= 10x: the regression gate
   against the old drain-everything Persist loop, whose single giant flush
   put p99 at 150x p50.

   Part 2 sweeps the batch bound and the group-commit deadline at one
   shard, mapping the latency/throughput trade-off: small bounds cut the
   tail but pay per-record overhead; long deadlines amortize better but
   delay lightly loaded batches.  Every run records its throughput,
   latency percentiles and persist-side engine counters as ledger rows. *)

open Dudetm_harness.Harness
module SB = Dudetm_shard.Shard_bench
module L = Ledger

let cross_pcts = [ 0; 5; 20 ]

let batch_maxes = [ 16; 32; 64; 128; 256 ]

let deadlines = [ 500; 1_000; 4_000; 16_000 ]

let canonical_ntxs = 2_000

let pcts r =
  let p q = Dudetm_sim.Stats.Latency.percentile r.SB.sb_commit_latency q in
  (p 50.0, p 95.0, p 99.0)

(* Commit-latency p99/p50: the tail amplification the bounded group commit
   exists to control (0 when p50 is 0). *)
let tail_ratio r =
  let p50, _, p99 = pcts r in
  if p50 = 0 then 0.0 else float_of_int p99 /. float_of_int p50

let record led ~scenario ~base r =
  let p50, p95, p99 = pcts r in
  L.add led ~scenario ~layer:"bench"
    (L.ints "txs" [ ("txs", r.SB.sb_ntxs); ("cross_txs", r.SB.sb_cross_txs) ]
    @ L.ints "cycles"
        [ ("cycles", r.SB.sb_cycles); ("commit_p50", p50); ("commit_p95", p95); ("commit_p99", p99) ]
    @ [
        ("ktps", "ktps", L.Float r.SB.sb_ktps);
        ("speedup", "x", L.Float (r.SB.sb_ktps /. base.SB.sb_ktps));
        ("p99_over_p50", "x", L.Float (tail_ratio r));
      ]);
  L.add led ~scenario ~layer:"engine"
    (List.map
       (fun (k, v) ->
         (k, (if String.ends_with ~suffix:"cycles" k then "cycles" else "count"), L.Int v))
       r.SB.sb_engine)

let run ?(scale = 1.0) led =
  let ntxs = max 400 (int_of_float (float_of_int canonical_ntxs *. scale)) in
  section
    (Printf.sprintf
       "Shard scaling: partitioned KV mix, %d txs, 8 workers, 0.25 GB/s per shard" ntxs);
  L.add led ~scenario:"shard" ~layer:"param"
    [ ("txs", "txs", L.Int ntxs); ("workers", "count", L.Int 8); ("bandwidth", "GB/s", L.Float 0.25) ];
  let rows =
    SB.run ~ntxs ~nshards:1 ~cross_pct:0 ()
    :: List.concat_map
         (fun n -> List.map (fun pct -> SB.run ~ntxs ~nshards:n ~cross_pct:pct ()) cross_pcts)
         [ 2; 4; 8 ]
  in
  let base = List.hd rows in
  Printf.printf "%-8s %-8s %12s %9s %10s   %-34s %s\n" "shards" "cross" "throughput"
    "speedup" "cross txs" "commit latency" "p99/p50";
  List.iter
    (fun r ->
      Printf.printf "%-8d %-8s %12s %8.2fx %10d   %-34s %6.1fx\n" r.SB.sb_nshards
        (string_of_int r.SB.sb_cross_pct ^ "%") (pp_ktps r.SB.sb_ktps)
        (r.SB.sb_ktps /. base.SB.sb_ktps)
        r.SB.sb_cross_txs (SB.pp_commit_latency r) (tail_ratio r);
      record led ~base r
        ~scenario:(Printf.sprintf "shard/n=%d/cross=%d%%" r.SB.sb_nshards r.SB.sb_cross_pct))
    rows;
  L.gate led ~scenario:"shard/n=8/cross=0%" ~layer:"bench" "speedup" (L.At_least 4.0);
  L.gate led ~scenario:"shard/n=1/cross=0%" ~layer:"bench" "p99_over_p50" (L.At_most 10.0);
  let sweep heading name values run1 =
    Printf.printf "\n%s:\n%-10s %12s %10s %10s %10s\n" heading name "throughput" "p50"
      "p99" "p99/p50";
    List.iter
      (fun v ->
        let r = run1 v in
        let p50, _, p99 = pcts r in
        Printf.printf "%-10d %12s %10d %10d %9.1fx\n" v (pp_ktps r.SB.sb_ktps) p50 p99
          (tail_ratio r);
        record led ~base r ~scenario:(Printf.sprintf "shard/n=1/%s=%d" name v))
      values
  in
  sweep "batch-bound sweep at 1 shard (deadline = default)" "batch_max" batch_maxes (fun b ->
      SB.run ~ntxs ~batch_min:(min 16 b) ~batch_max:b ~nshards:1 ~cross_pct:0 ());
  sweep "deadline sweep at 1 shard (bounds = default)" "deadline" deadlines (fun d ->
      SB.run ~ntxs ~batch_deadline:d ~nshards:1 ~cross_pct:0 ())

let tiny () = ignore (SB.run ~ntxs:200 ~nshards:2 ~cross_pct:10 ())
