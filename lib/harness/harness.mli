(** Shared benchmark machinery for the paper-reproduction experiments:
    construction of the evaluated systems, the six benchmark workloads with
    their calibration constants, and the measured runner. *)

(** {1 Systems under evaluation (Section 5.1)} *)

type system =
  | Dude  (** decoupled, bounded volatile logs *)
  | Dude_inf  (** decoupled, unbounded volatile logs *)
  | Dude_sync  (** Perform and Persist merged: flush + wait per transaction *)
  | Dude_sync_pcm  (** DUDETM-Sync at the paper's 3500-cycle PCM latency *)
  | Volatile  (** plain TinySTM on DRAM — the upper bound *)
  | Mnemosyne
  | Nvml

val system_name : system -> string

val heap_size : int
(** Persistent heap used by the benchmark systems (32 MiB). *)

val pmem : ?latency:int -> ?bandwidth:float -> unit -> Dudetm_nvm.Pmem_config.t

val dude_config :
  ?mode:Dudetm_core.Config.mode ->
  ?nthreads:int ->
  ?latency:int ->
  ?bandwidth:float ->
  ?shadow_frames:int ->
  ?shadow_mode:Dudetm_shadow.Shadow.mode ->
  ?heap:int ->
  unit ->
  Dudetm_core.Config.t

val make_system :
  ?nthreads:int -> ?latency:int -> ?bandwidth:float -> system -> Dudetm_baselines.Ptm_intf.t

(** {1 Benchmarks} *)

(** A benchmark: name, per-transaction application compute cost ([think], a
    calibration constant documented in EXPERIMENTS.md), default transaction
    count, whether NVML's static transactions can run it, and a setup
    returning the per-transaction body (which reports its commit ID, or
    0). *)
type bench = {
  bname : string;
  think : int;
  ntxs : int;
  static_ok : bool;
  setup : Dudetm_baselines.Ptm_intf.t -> (thread:int -> rng:Dudetm_sim.Rng.t -> int);
}

val hashtable_bench : ?ntxs:int -> unit -> bench

val bptree_bench : ?ntxs:int -> unit -> bench

val kv_bench : ?storage:Dudetm_workloads.Kv.kind -> ?ntxs:int -> unit -> bench
(** Mixed key-value microbenchmark (50% lookups / 30% inserts / 20%
    updates, uniform 64K key space) — the workload driven by the
    [dudetm trace] profiling subcommand.  [storage] defaults to hash. *)

val tatp_bench : storage:Dudetm_workloads.Kv.kind -> ?ntxs:int -> unit -> bench

val tpcc_bench :
  storage:Dudetm_workloads.Kv.kind ->
  ?ntxs:int ->
  ?items:int ->
  ?district_of_thread:(int -> int) ->
  ?mixed:bool ->
  unit ->
  bench
(** [items] defaults to 1000 (scaled down from TPC-C's 100k); the
    scalability experiment uses a larger table to keep stock contention at
    the spec's level.  [mixed] runs the New Order / Payment / Order-Status
    mix instead of the paper's New-Order-only driver. *)

val all_benches : unit -> bench list
(** The paper's six benchmarks, in Table 1 order. *)

(** {1 Runner} *)

type result = {
  ktps : float;  (** committed transactions per second, thousands *)
  cycles_per_tx : float;  (** wall cycles per transaction across all threads *)
  ntxs_run : int;
  writes : int;  (** transactional writes executed *)
  nvm_bytes : int;  (** payload bytes flushed to NVM during the run *)
  run_cycles : int;
      (** full simulated run, setup through drain/stop — the wall-cycle
          denominator for daemon utilization *)
  counters : (string * int) list;
  latency : Dudetm_sim.Stats.Latency.r;
      (** durable-acknowledgement latencies (Section 5.3 protocol), only
          populated when [measure_latency] was set *)
  commit_latency : Dudetm_sim.Stats.Latency.r;
      (** per-transaction commit latency in simulated cycles (begin to
          [dtmEnd] return, think time excluded) — always populated *)
}

val run_bench :
  ?seed:int -> ?measure_latency:bool -> Dudetm_baselines.Ptm_intf.t -> bench -> result
(** Run [bench] on [nthreads] simulated worker threads, measure from setup
    end to last commit, then drain.  Deterministic for a given seed. *)

(** {1 Output helpers} *)

val section : string -> unit

val ktps : txs:int -> cycles:int -> float
(** Thousands of transactions per simulated second; 0 over 0 cycles. *)

val pp_ktps : float -> string

val pp_commit_latency : result -> string
(** ["p50 .. / p95 .. / p99 .. cyc"] over {!result.commit_latency}. *)

val report_commit_latency : string -> result -> unit
(** One-line commit-latency percentile report, used by every bench
    experiment. *)

(** {1 Bench ledger}

    Every gated bench reports its numbers as rows [(scenario, layer,
    metric, value, unit)] and its pass/fail criteria as gates over those
    rows.  The simulation is deterministic, so every row is exact and the
    committed golden [bench/ledger.tsv] is diffed exactly.  Host-dependent
    values (wall time) are printed, never recorded as rows. *)
module Ledger : sig
  type value = Int of int | Float of float

  type bound = At_least of float | At_most of float | Exactly of float

  type t

  val create : unit -> t

  val add : t -> scenario:string -> layer:string -> (string * string * value) list -> unit
  (** [add t ~scenario ~layer [(metric, unit, value); ...]] appends rows in
      order.  Raises [Invalid_argument] on a duplicate [(scenario, layer,
      metric)] key. *)

  val ints : string -> (string * int) list -> (string * string * value) list
  (** [ints unit [(metric, v); ...]]: integer rows that share one unit. *)

  val gate : t -> scenario:string -> layer:string -> string -> bound -> unit
  (** Declare that the named row must satisfy [bound]. *)

  val cell : value -> string
  (** The TSV rendering: an int in decimal, a float as the shortest [%g]
      that reads back to the same bits. *)

  val check : t -> (string * bool) list
  (** Every declared gate, in declaration order, as a one-line report and
      whether it held.  A gate naming a row that was never added fails. *)

  val write : t -> string -> unit
  (** Write the rows, in the order they were added, as TSV under a header
      line; nothing when no row was added. *)
end
