(* Shared driver for the shard-scaling experiment: used by both the
   `dudetm shard` CLI subcommand and the `shard` bench experiment, so the
   two always measure the same workload.

   The workload is a partitioned key-value update mix: every key maps to
   its home shard through the deterministic {!Dudetm_workloads.Partition}
   hash, each worker draws keys uniformly, and a configurable fraction of
   transactions transfer between two keys on different shards (the
   cross-shard path).  Throughput is end-to-end durable: the clock stops
   only after [drain] has retired every committed transaction, so the
   number reported is bounded by the persist pipelines — the quantity
   that scales with shard count. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Cycles = Dudetm_sim.Cycles
module Config = Dudetm_core.Config
module Partition = Dudetm_workloads.Partition
module Sh = Shard.Make (Dudetm_tm.Tinystm)

type result = {
  sb_nshards : int;
  sb_cross_pct : int;
  sb_ntxs : int;
  sb_cross_txs : int;
  sb_cycles : int;
  sb_ktps : float;
  sb_commit_latency : Stats.Latency.r;
  sb_engine : (string * int) list;
}

let nkeys = 4096

let slots = 512

(* Each key's home slot inside its shard's region. *)
let slot_off k = 64 + (8 * (k mod slots))

let shard_cfg ~workers ~bandwidth ~persist_latency =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = workers;
    vlog_capacity = 128;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    checkpoint_records = 2;
    seed = 11;
    pmem =
      {
        Dudetm_nvm.Pmem_config.default with
        Dudetm_nvm.Pmem_config.bandwidth_gbps = bandwidth;
        persist_latency;
      };
  }

(* Persist-side engine counters: summed over shards, except the batch
   high-water marks, which take the maximum. *)
let engine_counters sh ~nshards =
  let engines = List.init nshards (Sh.engine sh) in
  let over f combine = List.fold_left (fun acc e -> combine acc (f e)) 0 engines in
  let stat k e = Stats.get (Sh.Engine.stats e) k in
  (("vlog_producer_blocks", over Sh.Engine.vlog_producer_blocks ( + ))
  :: List.map
       (fun k -> (k, over (stat k) ( + )))
       [
         "bp_throttle_events"; "bp_throttle_cycles"; "flush_records"; "batch_size_flushes";
         "batch_deadline_flushes"; "batch_drain_flushes"; "pace_events"; "pace_cycles";
       ])
  @ List.map (fun k -> (k, over (stat k) max)) [ "batch_hwm_entries"; "batch_bound_hwm" ]

let run ?(seed = 42) ?(bandwidth = 0.25) ?(persist_latency = 500) ?(ntxs = 2_000)
    ?(workers = 8) ?(think = 50) ?batch_min ?batch_max ?batch_deadline ~nshards
    ~cross_pct () =
  if nshards < 1 then invalid_arg "Shard_bench.run: nshards must be >= 1";
  if cross_pct < 0 || cross_pct > 100 then
    invalid_arg "Shard_bench.run: cross_pct must be in [0, 100]";
  let cfg = shard_cfg ~workers ~bandwidth ~persist_latency in
  let persist =
    match cfg.Config.persist with
    | Config.Per_thread p ->
      Config.Per_thread
        {
          p with
          min_entries = Option.value batch_min ~default:p.min_entries;
          max_entries = Option.value batch_max ~default:p.max_entries;
        }
    | combined -> combined
  in
  let cfg =
    {
      cfg with
      Config.persist;
      batch_deadline = Option.value batch_deadline ~default:cfg.Config.batch_deadline;
    }
  in
  let part = Partition.hashed ~nshards in
  let sh = Sh.create ~nshards cfg in
  let per = ntxs / workers in
  let ntxs_run = per * workers in
  let commit_latency = Stats.Latency.create () in
  let cross_txs = ref 0 in
  let done_ = Array.make workers 0 in
  let start = ref 0 in
  let stop_ = ref 0 in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         start := Sched.now ();
         for w = 0 to workers - 1 do
           ignore
             (Sched.spawn
                (Printf.sprintf "shard-worker-%d" w)
                (fun () ->
                  let rng = Rng.create (seed + w) in
                  for _ = 1 to per do
                    Sched.advance think;
                    let k = Rng.int rng nkeys in
                    let home = Partition.shard_of part (Int64.of_int k) in
                    let cross = nshards > 1 && Rng.int rng 100 < cross_pct in
                    let t0 = Sched.now () in
                    if cross then begin
                      (* Draw a partner key on a different shard; the hash
                         partition spreads keys, so this terminates fast. *)
                      let rec partner () =
                        let k2 = Rng.int rng nkeys in
                        let s2 = Partition.shard_of part (Int64.of_int k2) in
                        if s2 = home then partner () else (k2, s2)
                      in
                      let k2, s2 = partner () in
                      incr cross_txs;
                      ignore
                        (Sh.atomically sh ~thread:w ~shards:[ home; s2 ] (fun tx ->
                             let a = Sh.read tx ~shard:home (slot_off k) in
                             let b = Sh.read tx ~shard:s2 (slot_off k2) in
                             Sh.write tx ~shard:home (slot_off k) (Int64.sub a 1L);
                             Sh.write tx ~shard:s2 (slot_off k2) (Int64.add b 1L)))
                    end
                    else
                      ignore
                        (Sh.atomically sh ~thread:w ~shards:[ home ] (fun tx ->
                             let v = Sh.read tx ~shard:home (slot_off k) in
                             Sh.write tx ~shard:home (slot_off k) (Int64.add v 1L)));
                    Stats.Latency.record commit_latency (Sched.now () - t0);
                    done_.(w) <- done_.(w) + 1
                  done))
         done;
         Sched.wait_until ~label:"shard bench done" (fun () ->
             Array.for_all (fun c -> c = per) done_);
         (* End-to-end durable: the run is over only when every committed
            transaction has been persisted and replayed on its shard. *)
         Sh.drain sh;
         stop_ := Sched.now ();
         Sh.stop sh));
  let cycles = !stop_ - !start in
  {
    sb_nshards = nshards;
    sb_cross_pct = cross_pct;
    sb_ntxs = ntxs_run;
    sb_cross_txs = !cross_txs;
    sb_cycles = cycles;
    sb_ktps =
      (if cycles = 0 then 0.0
       else float_of_int ntxs_run /. Cycles.to_seconds cycles /. 1e3);
    sb_commit_latency = commit_latency;
    sb_engine = engine_counters sh ~nshards;
  }

let pp_commit_latency r =
  let p q = Stats.Latency.percentile r.sb_commit_latency q in
  Printf.sprintf "p50 %d / p95 %d / p99 %d cyc" (p 50.0) (p 95.0) (p 99.0)
