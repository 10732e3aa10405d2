(** The decoupled durable-transaction engine (Sections 3–4).

    A functor over an out-of-the-box TM.  A durable transaction's life:

    - {b Perform}: the application thread runs the transaction with the TM
      against volatile data (a flat DRAM mirror of the heap, or a paged
      {!Dudetm_shadow.Shadow} when the shadow is smaller than NVM).  Every
      [write] also appends a redo entry to the thread's volatile log;
      commit appends the end mark carrying the TM-issued transaction ID.
    - {b Persist}: background threads drain volatile logs into checksummed
      records in persistent log rings (one persist ordering per record) and
      advance the global durable ID — the largest D such that every
      transaction with ID ≤ D is persistent.  Optionally they combine
      writes across groups of transactions and LZ-compress the groups.
    - {b Reproduce}: a background thread replays persisted records onto the
      home NVM locations in transaction-ID order, persists the reproduced
      data, checkpoints the allocator + watermark, and recycles records.

    Dirty volatile data is never written to NVM home locations directly;
    the redo log is the only channel, so CPU-cache evictions of shadow data
    can never break crash consistency.

    The functor holds Perform.  Persist, Reproduce and recovery are the
    modules {!Persist}, {!Reproduce} and {!Recovery} over the shared
    {!Engine_state} record; {!Make} re-exports their entry points. *)

exception Pmem_exhausted
(** [pmalloc] found no free extent large enough. *)

exception Drain_stalled of string
(** {!Make.drain} exceeded its simulated-cycle budget
    ({!Config.drain_budget}) without retiring every committed transaction.
    The payload is a diagnostic of the stuck pipeline: durable/applied IDs,
    volatile-log backlog, ring occupancy, queued reproduce items, daemon
    restart/backoff counters and the backpressure state — so a stall caused
    by a crash-looping daemon is distinguishable from ring-full
    livelock. *)

exception Read_only of string
(** The instance is in degraded read-only mode (see {!Make.freeze}):
    transactional writes, [pmalloc] and [pfree] are rejected with the
    reason the instance was frozen; reads still work. *)

exception Read_only_violation
(** A transaction declared read-only ({!Make.atomically_ro}) attempted a
    write, [pmalloc] or [pfree].  A programming error, not a conflict:
    snapshot transactions hold no locks and logged nothing, so there is
    nothing to roll back.  (Same exception as
    [Dudetm_tm.Tm_intf.Read_only_violation].) *)

exception Daemon_fault of string
(** Injected transient Persist/Reproduce worker failure (at
    {!Dudetm_sim.Inject.daemon_fault_rate}, armed only by the checker and
    the tests; never raised in production).  Handled by the daemon supervisor, which restarts the
    worker from its persistent position with capped exponential backoff —
    it escapes only if a fault fires outside any supervised daemon. *)

type recovery_report = Rjournal.report = {
  durable : int;
  replayed_txs : int;
  discarded_txs : int;
  discarded_records : int;
  corrupted_records : int;
  quarantined_lines : int;
}
(** The recovery verdict, as sealed in the recovery journal; see
    {!Rjournal.report} for each counter. *)

val scan_items :
  Config.t ->
  Dudetm_log.Plog.record list ->
  ckpt_upto:int ->
  Engine_state.item list * (int, unit) Hashtbl.t * int
(** [scan_items cfg records ~ckpt_upto] turns surviving ring records into
    replay items, sorted by ID range (items of one range keep their
    record order): one per transaction under
    {!Config.Per_thread}, one per record under {!Config.Combined} (the
    rule the live Persist step queues by), each pointing into its
    record's plain body.  Also returns every transaction ID the records
    carry and the durable ID: the largest contiguous extension of the
    checkpoint [ckpt_upto].  Engine recovery and the offline scrub both
    filter replay through it. *)

module Make (Tm : Dudetm_tm.Tm_intf.S) : sig
  type t

  type tx

  (** {1 Lifecycle} *)

  val create : ?nvm_label:string -> Config.t -> t
  (** Build a fresh instance: allocates and formats a simulated NVM device
      per the config's layout.  [nvm_label] (default ["nvm"]) names the
      device in trace per-device accounting — the sharding layer passes
      ["shard<i>"]. *)

  val attach : Config.t -> Dudetm_nvm.Nvm.t -> t * recovery_report
  (** Recover from a crashed device: scan the log rings, recompute the
      durable ID, replay durable transactions past the checkpoint, discard
      torn tails, rebuild the allocator, and return a fresh instance whose
      transaction IDs continue after the recovered prefix.

      Recovery is itself crash-consistent: a pending scrub probe recorded
      in the intent journal ({!Rjournal}) is undone first, the recovery
      verdict is sealed in the journal before any heap mutation, and a
      crash at any persist boundary inside [attach] followed by a fresh
      [attach] converges to the same durable ID, heap state and recovery
      report. *)

  (** {2 Two-phase recovery (cross-shard vote)}

      [attach] is the composition of a non-destructive scan and a
      destructive commit.  The sharding layer prepares every region first,
      votes over the scanned fragment seals and checkpointed frontiers,
      then commits each region with its voted durable cut — so a fragment
      of an incomplete cross-shard transaction set is discarded on {e
      every} region, never replayed on some and dropped on others. *)

  type prepared

  val attach_prepare : Config.t -> Dudetm_nvm.Nvm.t -> prepared
  (** Undo any journalled probe, read the checkpoint, scan the log rings
      and compute the candidate durable ID.  Mutates nothing but the intent
      journal and the torn/lost ring headers the tolerant scan repairs. *)

  val attach_commit : ?durable_cut:int -> prepared -> t * recovery_report
  (** Finish recovery: seal the verdict, replay the durable prefix (capped
      at [durable_cut] when the cross-shard vote shrank it), checkpoint and
      recycle.  [durable_cut] may only shrink the prefix; it is clamped to
      the checkpointed watermark from below and rejected above the scanned
      candidate. *)

  val prepared_durable : prepared -> int
  (** Candidate durable ID before any vote. *)

  val prepared_frontier : prepared -> int
  (** Checkpointed cross-shard frontier: every fragment with a global ID at
      or below it was replayed (and possibly recycled) by this region. *)

  val prepared_fragments : prepared -> (int * int * int) list
  (** Scanned fragment seals [(gtid, mask, tid)], sorted. *)

  val prepared_checkpoint_upto : prepared -> int
  (** Checkpointed replay watermark: the floor below which a durable cut
      cannot reach (replayed state cannot be un-replayed). *)

  val start : t -> unit
  (** Spawn the Persist and Reproduce daemon threads.  Must run inside
      {!Dudetm_sim.Sched.run}; call once before the first transaction. *)

  val begin_drain : t -> unit
  (** Mark the instance as draining without blocking.  The sharding layer
      sets this on every region before blocking in {!drain}: a
      combined-mode persist daemon only flushes a partial trailing group
      once draining is set, and a cross-shard replay gate on one region can
      require exactly that trailing flush on a sibling. *)

  val drain : t -> unit
  (** Block until every committed transaction is durable and reproduced.
      Call only after all application threads have stopped issuing
      transactions: the wait covers transactions committed so far, not
      ones that have yet to begin.  Raises {!Drain_stalled} with a pipeline
      diagnostic if more than {!Config.drain_budget} simulated cycles pass
      without the pipeline draining (livelock watchdog; true deadlock
      raises [Sched.Deadlock] as before). *)

  val stop : t -> unit
  (** Ask daemons to exit once drained (they are daemons, so this is only
      needed when an experiment wants their final counters flushed). *)

  (** {1 Transactions (the paper's five-call API)}

      {b Handle lifetime.}  A [tx] handle belongs to one attempt of one
      transaction.  Once that attempt ends — it commits, a conflict
      retries it, or it aborts — every call through the handle ([read],
      [write], [abort], [pmalloc], [pfree]) raises [Invalid_argument]
      before any side effect: no shadow page is pinned, no cycle is
      charged, no log entry is appended and no heap space is reserved, so
      a stale handle leaves no trace in any later transaction. *)

  val atomically : t -> thread:int -> (tx -> 'a) -> ('a * int) option
  (** [atomically t ~thread f] is [dtmBegin]; [f] runs transactionally with
      automatic conflict retry.  Returns [Some (result, tid)] after commit
      ([tid = 0] for read-only transactions) or [None] if [f] aborted via
      {!abort}.  [thread] indexes the calling Perform thread's log buffer
      (0 to [nthreads-1]); each simulated thread must use its own index.
      Raises [Invalid_argument] when [thread] is already inside a
      read-write transaction on this engine: its volatile log holds one
      transaction at a time. *)

  val atomically_ro :
    ?durable:bool -> t -> thread:int -> (tx -> 'a) -> ('a * int) option
  (** Read-only snapshot transaction (the DUMBO-style fast path): [f] reads
      a consistent epoch of shadow memory taken from the TM's global
      version clock, validated per read against the versioned lock table
      with timestamp extension.  It acquires no locks, appends nothing to
      the redo log, never enters the persist pipeline, and skips the
      ring-pressure throttle and admission pacing entirely — writers and
      daemons cannot observe it.  Returns [Some (result, epoch)] where
      [epoch] is the engine-space clock value the whole read-set is
      consistent at, or [None] if [f] called {!abort}.  A write, [pmalloc]
      or [pfree] inside [f] raises {!Read_only_violation}.

      [durable = true] selects durable-only mode: the epoch is pinned at
      the watermark installed by {!set_ro_watermark} (or the local durable
      ID), so every value read was already crash-surviving at the
      moment of the read; a read observing newer state waits — bounded by
      the group-commit deadline — for durability to catch up.  Fresh-epoch
      mode ([durable = false], the default) may observe committed state
      that is not yet durable.  Raises [Invalid_argument] when [thread] is
      already inside a snapshot on this engine (a snapshot inside a
      read-write transaction is fine). *)

  val read : tx -> int -> int64
  (** [dtmRead]. *)

  val write : tx -> int -> int64 -> unit
  (** [dtmWrite]: append to the redo log, then TM-write. *)

  val abort : tx -> 'a
  (** [dtmAbort]: roll back, discard this attempt's log entries, and make
      {!atomically} return [None]. *)

  (** {1 Persistent allocation (Section 3.5)} *)

  val pmalloc : tx -> int -> int
  (** Allocate from the persistent heap inside a transaction; logged, and
      refunded automatically if the transaction aborts.  The first word is
      transactionally zeroed (which also makes the transaction a write
      transaction).  Raises {!Pmem_exhausted}. *)

  val pfree : tx -> off:int -> len:int -> unit
  (** Free a block; takes effect at commit, logged for recovery. *)

  (** {1 Durability protocol} *)

  val durable_id : t -> int
  (** Largest D with every write transaction ID ≤ D persistent. *)

  val applied_id : t -> int
  (** Largest ID whose updates Reproduce has applied to NVM (volatile
      watermark; gates shadow-page swap-in). *)

  val last_tid : t -> int
  (** Most recently committed write-transaction ID. *)

  val wait_durable : t -> int -> unit
  (** Block until [durable_id t >= tid]. *)

  val wake_durable : t -> Dudetm_sim.Sched.cond
  (** Signalled each time {!durable_id} advances: a layer whose wait (or
      replay gate) reads this engine's durable ID names it in its conds. *)

  val set_ro_watermark : t -> on:Dudetm_sim.Sched.cond list -> (unit -> int) option -> unit
  (** Install the watermark durable-only snapshots pin at, in engine tid
      space.  Layers that gate durability beyond the local device use
      this: the sharding layer installs per-shard {e effective} durable
      IDs (cross-shard fragments held back until their siblings are
      durable), the replication layer its quorum watermark.  The thunk
      must be a pure read — it runs inside scheduler wait predicates — and
      [on] must hold a cond signalled on every change that can raise it: a
      snapshot waiting for the watermark parks on them (the contract of
      {!Dudetm_sim.Sched.wait_on}).  [None] restores the default, the
      local durable ID woken by {!wake_durable}, and ignores [on]. *)

  (** {1 Cross-shard transactions (sharding layer hooks)} *)

  val seal_cross : tx -> gtid:int -> mask:int -> unit
  (** Request a fragment seal: if this transaction commits with writes, a
      [Cross { gtid; mask; tid }] redo entry is logged just before its end
      mark, CRC-sealed into the same durable record.  Called by the
      sharding layer once the body has finished and the set of shards
      actually written is known. *)

  type item
  (** A unit of Reproduce work: one transaction of a plain record, or one
      whole combined record. *)

  val item_hi : item -> int
  (** The item's last transaction ID. *)

  val item_cross_gtid : item -> int
  (** The highest cross-shard global ID sealed into the item's [Cross]
      entries, or 0 when it carries no fragment: a field, found by the
      scan of the log record itself when the record is committed, so a
      fragment can never pass a gate keyed on it before the sharding layer
      knows its sibling set. *)

  val set_replay_gate : t -> on:Dudetm_sim.Sched.cond list -> (item -> bool) option -> unit
  (** Install the replay gate: Reproduce applies the next item only once
      the predicate admits it.  The sharding layer gates a fragment on
      {!item_cross_gtid} (every cross-shard transaction at or below it
      durable on all its shards); a follower gates on {!item_hi} (at or
      below the cluster's acknowledged watermark, which keeps the
      checkpoint floor below any legal promotion-time durable cut).  The
      predicate must be pure — it runs inside scheduler wait conditions —
      and [on] must hold a cond signalled on every change to the state it
      reads (Reproduce parks on them: the contract of
      {!Dudetm_sim.Sched.wait_on}).  Raises [Invalid_argument] once the
      engine is started. *)

  (** {1 Replicated durability (replication layer hooks)}

      [lib/replica] runs one primary (a normal started instance) plus K
      followers.  The primary's Persist daemon hands every sealed record to
      {!set_ship_hook}'s callback; each follower ingests the records
      in order via {!ingest_record} and replays them with its own Reproduce
      daemon ({!start_follower}), gated by {!set_replay_gate} to the
      cluster's quorum-acknowledged watermark. *)

  val set_ship_hook :
    t -> (seq:int -> lo:int -> hi:int -> bytes -> pos:int -> len:int -> unit) option -> unit
  (** Install the primary-side ship tap: fires on the Persist daemon
      immediately after a log record's NVM persist completes (and its
      durable IDs are published) — the earliest point at which the batch is
      sealed locally and may be offered to replicas.  It is handed the
      group-commit batch, reused verbatim as the wire unit: the record's
      ring sequence number [seq] (the replication stream's
      dedup/retransmit key), its contiguous transaction-ID range
      [lo..hi] and its payload, the buffer's bytes [\[pos, pos + len)]
      exactly as persisted to ring 0 (the buffer must not be mutated).  A
      follower ingesting the payload reproduces a byte-identical record
      at the same sequence number in its own ring.  The callback must not
      block (the replication layer enqueues onto simulated links). *)

  val ingest_record : t -> bytes -> pos:int -> len:int -> bool
  (** Follower-side flusher tail: append the shipped payload, the
      buffer's bytes [\[pos, pos + len)] (a received frame's payload, read
      in place), to ring 0, queue the replay item and advance the local
      durable watermark.
      Returns [false] (and does nothing) when the ring lacks space — the
      caller keeps the frame buffered and retries after Reproduce recycles.
      Raises [Invalid_argument] if the batch does not extend the follower's
      contiguous durable prefix (the replication layer's in-order delivery
      was violated). *)

  val start_follower : t -> unit
  (** Spawn only the supervised Reproduce daemon: a follower performs no
      transactions and persists nothing of its own. *)

  val stop_follower : t -> unit
  (** Ask a follower's Reproduce daemon to checkpoint what is applied and
      exit.  No drain: the replay gate may legitimately hold back a
      never-acknowledged suffix forever. *)

  (** {1 Degraded mode} *)

  val freeze : t -> reason:string -> unit
  (** Enter degraded read-only mode: subsequent transactional writes,
      [pmalloc] and [pfree] raise {!Read_only} with [reason]; reads and
      read-only transactions continue to work.  Used when scrub reports
      unreconstructible extents — serve what survived instead of refusing
      to attach. *)

  val read_only : t -> string option
  (** [Some reason] when frozen. *)

  (** {1 Introspection} *)

  val config : t -> Config.t

  val nvm : t -> Dudetm_nvm.Nvm.t

  val root_base : t -> int
  (** Address of the reserved root block (heap offset 0). *)

  val heap_read_u64 : t -> int -> int64
  (** Non-transactional read of the volatile heap view (for debugging and
      test assertions outside transactions). *)

  val ring_pressure : t -> bool
  (** [true] while any persistent log ring is above the backpressure
      high-water mark ({!Config.t.bp_hwm_fraction}).  Pure read — the
      admission gate of the serving front end polls it when deciding
      whether to shed, so overload is detected {e before} Perform threads
      start blocking in throttle waits. *)

  val drain_diagnostic : t -> string
  (** The diagnostic string {!drain} would raise with right now: pipeline
      watermarks, ring occupancy and daemon counters.  For tests and
      operator tooling. *)

  val stats : t -> Dudetm_sim.Stats.t
  (** ["txs"], ["log_entries"], ["flush_records"], ["flush_payload_bytes"],
      ["combine_writes_in"], ["combine_writes_out"],
      ["compress_in_bytes"], ["compress_out_bytes"]; supervision and
      backpressure: ["daemon_faults"], ["daemon_restarts"],
      ["daemon_backoff_cycles"], ["bp_throttle_events"],
      ["bp_throttle_cycles"], ["pmalloc_waits"], ["pmalloc_wait_cycles"],
      and high-water marks ["plog_hwm_bytes"], ["vlog_hwm_entries"]. *)

  val tm : t -> Tm.t

  val shadow_stats : t -> Dudetm_sim.Stats.t option
  (** Paging counters when running with a paged shadow. *)

  val vlog_producer_blocks : t -> int
end
