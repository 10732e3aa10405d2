(** Sharded DudeTM: multi-region NVM with per-shard Persist/Reproduce
    pipelines and cross-shard durable transactions.

    The persistent heap is partitioned into [nshards] independent regions,
    each a complete DudeTM instance on its own simulated NVM device (own
    plog rings, allocator/checkpoint pair, supervised daemons).  Each
    region's device is labeled ["shard<i>"] for per-device trace
    accounting.

    {2 Cross-shard transactions}

    A transaction declaring several shards runs one nested sub-transaction
    per touched region under a global mutex, with the touched regions
    quiesced (no concurrent single-shard transaction in flight on them), so
    no TM conflict — hence no retry — can strike while sub-transactions are
    nested.  If at least two regions are written, each written fragment is
    sealed with a shared global transaction ID ([Cross { gtid; mask; tid }]
    in its redo record, CRC-covered with the fragment's writes).

    {2 The vector watermark}

    Durability is a vector: per-shard durable IDs plus the {e global
    cross-shard frontier} GF — the largest [g] such that every cross-shard
    transaction with gtid ≤ [g] has all its fragments durable on their own
    regions.  A fragment is replayed to NVM home locations only once its
    gtid is at or below GF; a region's acknowledgeable durable ID stops
    just below its first fragment beyond GF (such a fragment can still be
    discarded by the recovery vote, directly or through the contiguity
    cascade of an earlier incomplete set).

    {2 Recovery}

    {!Make.attach} prepares every region (non-destructive scan), runs a
    fixpoint vote that discards every fragment of an incomplete sibling
    set — using each region's checkpointed frontier to distinguish
    "replayed and recycled" from "never durable" — and only then commits
    each region with its voted durable cut. *)

exception Cross_abort
(** Raised by {!Make.abort}; unwinds (and rolls back) every open
    sub-transaction. *)

module Make (Tm : Dudetm_tm.Tm_intf.S) : sig
  module Engine : module type of Dudetm_core.Dudetm.Make (Tm)

  type t

  type tx

  (** What a committed transaction must wait on to be crash-safe. *)
  type ack =
    | Ack_read_only
    | Ack_local of { shard : int; tid : int }
        (** durable once the shard's {!effective_vector} entry reaches
            [tid] *)
    | Ack_cross of { gtid : int }  (** durable once [global_frontier >= gtid] *)

  type recovery = {
    reports : Dudetm_core.Dudetm.recovery_report array;
    voted_cuts : int array;
        (** per shard: how far the vote cut below the candidate durable ID *)
    discarded_fragments : int;
        (** fragments dropped because their sibling set was incomplete *)
  }

  (** {1 Lifecycle} *)

  val create : nshards:int -> Dudetm_core.Config.t -> t
  (** [create ~nshards cfg] builds [nshards] fresh regions, each formatted
      per [cfg]'s layout on its own device.  [nshards] must be within
      [1, 60] (fragment masks are [int] bitsets). *)

  val attach : nshards:int -> Dudetm_core.Config.t -> Dudetm_nvm.Nvm.t array -> t * recovery
  (** Recover all regions from their crashed devices: prepare every region,
      run the cross-shard fixpoint vote over the scanned fragment seals and
      checkpointed frontiers, then commit each region with its voted
      durable cut.  Raises [Failure] if a fragment below a region's replay
      floor has an incomplete sibling set — that means the replay gate was
      violated (e.g. the [Skip_fragment_gate] mutant), never a legal crash
      state. *)

  val start : t -> unit
  (** Spawn every region's daemons; run inside {!Dudetm_sim.Sched.run}. *)

  val drain : t -> unit
  (** Mark every region draining first, then block until each has retired
      all committed transactions (including cross-shard fragments gated on
      siblings).  A region that stalls raises
      {!Dudetm_core.Dudetm.Drain_stalled} with {!drain_diagnostic}. *)

  val drain_diagnostic : t -> string
  (** Every region's engine drain diagnostic, each prefixed [shard <i>: ]
      and joined by ["; "]. *)

  val stop : t -> unit
  (** {!drain}, then stop every region's daemons. *)

  (** {1 Transactions} *)

  val atomically : t -> thread:int -> shards:int list -> (tx -> 'a) -> ('a * ack) option
  (** Run [f] transactionally over the declared [shards].  A single-shard
      list takes the uninstrumented fast path; several shards take the
      cross-shard path described above.  Returns [None] if [f] called
      {!abort}. *)

  val atomically_ro :
    ?durable:bool -> t -> thread:int -> shard:int -> (tx -> 'a) -> ('a * int) option
  (** Read-only snapshot transaction on one shard: lock-free, log-free and
      persist-free ({!Dudetm_core.Dudetm.Make.atomically_ro} on the
      shard's engine).  Takes no quiesce handshake — a snapshot owns no
      stripes and cannot conflict with the cross-shard path.  With
      [~durable:true] the snapshot epoch pins at the shard's entry of the
      {e vector} watermark ({!effective_vector}), so every value read is
      crash-safe even against the cross-shard recovery vote.  Returns the
      result and the snapshot epoch (an engine transaction ID on that
      shard); [None] if [f] called {!abort}.  Calling {!write},
      {!pmalloc} or {!pfree} inside raises
      [Dudetm_core.Dudetm.Read_only_violation]. *)

  val read : tx -> shard:int -> int -> int64

  val write : tx -> shard:int -> int -> int64 -> unit

  val pmalloc : tx -> shard:int -> int -> int

  val pfree : tx -> shard:int -> off:int -> len:int -> unit

  val abort : tx -> 'a

  (** {1 The vector watermark} *)

  val durable_vector : t -> int array
  (** Per-shard engine durable IDs. *)

  val effective_vector : t -> int array
  (** Acknowledgeable durable ID of each shard (cut below its first
      fragment beyond the frontier). *)

  val global_frontier : t -> int
  (** GF: every cross-shard transaction at or below it is fully durable. *)

  val wait_durable : t -> ack -> unit
  (** Block until the acknowledgement is crash-safe under the vector
      watermark. *)

  (** {1 Introspection} *)

  val nshards : t -> int

  val config : t -> Dudetm_core.Config.t

  val engine : t -> int -> Engine.t

  val nvm : t -> int -> Dudetm_nvm.Nvm.t

  val stats : t -> Dudetm_sim.Stats.t
  (** ["single_txs"], ["cross_txs"]. *)
end
