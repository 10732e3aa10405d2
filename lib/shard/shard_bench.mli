(** Shared driver for the shard-scaling experiment.

    Both the [dudetm shard] CLI subcommand and the [shard] bench
    experiment run this workload, so they always measure the same thing: a
    partitioned key-value update mix over a {!Shard} instance, with every
    key placed on its home shard by the deterministic
    {!Dudetm_workloads.Partition} hash and a configurable fraction of
    transactions transferring between two keys on different shards.

    Throughput is {e end-to-end durable}: the clock stops after [drain]
    has retired every committed transaction, so the reported rate is
    bounded by the persist pipelines — one per shard — which is exactly
    the quantity expected to scale with shard count. *)

type result = {
  sb_nshards : int;
  sb_cross_pct : int;  (** requested cross-shard transaction percentage *)
  sb_ntxs : int;  (** transactions actually run (rounded to workers) *)
  sb_cross_txs : int;  (** transactions that took the cross-shard path *)
  sb_cycles : int;  (** simulated cycles, first commit through drain *)
  sb_ktps : float;  (** durable transactions per second, in thousands *)
  sb_commit_latency : Dudetm_sim.Stats.Latency.r;
      (** per-transaction commit latency (begin to commit return, think
          time excluded), simulated cycles *)
  sb_engine : (string * int) list;
      (** persist-side engine counters after the run: vlog producer blocks,
          backpressure throttling, flush records by cause (size, deadline,
          drain), drain pacing — summed over shards — and the batch
          high-water marks, maxed over shards *)
}

val run :
  ?seed:int ->
  ?bandwidth:float ->
  ?persist_latency:int ->
  ?ntxs:int ->
  ?workers:int ->
  ?tune:(Dudetm_core.Config.t -> Dudetm_core.Config.t) ->
  nshards:int ->
  cross_pct:int ->
  unit ->
  result
(** Defaults: seed 42, 0.25 GB/s per-shard write bandwidth, 500-cycle
    persists, 2000 transactions over 8 workers.  Every worker thinks a
    fixed 50 cycles before each transaction.  The low per-shard bandwidth
    makes the persist pipeline the bottleneck at one shard, so shard
    scaling is visible.  With [nshards = 1], [cross_pct] is ignored (there
    is no second shard).  [tune] edits the engine configuration before the
    shards are built (default: none); the shard bench uses it to sweep the
    batch bounds and the group-commit deadline at one shard, mapping the
    batching latency/throughput trade-off.  Raises [Invalid_argument] on
    [nshards < 1] or [cross_pct] outside [\[0, 100\]]. *)
