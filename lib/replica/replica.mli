(** Replicated durability: ship the primary's sealed redo-log records to K
    replicas and acknowledge transactions at a quorum watermark.

    {2 Wire unit}

    The Persist step already emits a totally-ordered, CRC-sealed,
    self-describing redo stream — the PR 6 group-commit batch is reused
    verbatim as the replication unit: the primary's ship hook fires with
    the exact payload bytes persisted to ring 0, and each follower appends
    those same bytes to its own ring at the same sequence number, so a
    replica's device is a byte-identical (possibly shorter) prefix of the
    primary's log and promotion is ordinary [attach] recovery.

    {2 Quorum vector watermark}

    With K replicas the cluster has K+1 nodes and quorum
    [q = ⌈(K+1)/2⌉].  The primary always seals first, so a transaction is
    {e quorum-acked} once [q - 1] replicas report a local durable ID at or
    above it: the acked watermark is
    [min (primary durable) ((q-1)-th largest replica durable)] — a vector
    watermark over per-replica durable IDs, generalizing the PR 5
    cross-shard vector.  [K = 1] gives [q - 1 = 0]: the watermark {e is}
    the primary durable ID and the cluster degenerates to PR 6 behaviour.

    {2 Failover}

    {!Make.promote} power-cuts every replica device, scans each
    ([attach_prepare]), picks the longest candidate prefix, and truncates
    it to the {e quorum prefix} — the [(q-1)]-th largest candidate, a
    provable upper bound on every acked transaction (an acked transaction
    is sealed on at least [q-1] replicas, and prefixes are contiguous).  A
    replica that ran ahead of the quorum loses only its never-acked tail.
    Follower replay is gated to the acknowledged watermark, which keeps
    every checkpoint floor below any legal truncation.

    {2 Degraded mode}

    A durability wait never blocks past {!Config.ack_timeout}: when quorum
    is unreachable (partition, dead replicas) the cluster returns
    [Degraded_quorum] with a lag/retransmit diagnostic and continues with
    primary-only durability — explicitly, never silently. *)

module Make (Tm : Dudetm_tm.Tm_intf.S) : sig
  module Engine : module type of Dudetm_core.Dudetm.Make (Tm)

  exception Replica_lag of string
  (** Raised by {!drain} [~require_quorum:true] when the replicas cannot
      reach the primary's durable ID within {!Config.ack_timeout}.  The
      payload mirrors [Drain_stalled]: per-replica acked IDs and lag,
      partition state, retransmit/backoff counters, outstanding batches. *)

  type t

  (** Outcome of a durability wait. *)
  type ack =
    | Quorum  (** sealed on ⌈(K+1)/2⌉ nodes *)
    | Degraded_quorum of string
        (** quorum unreachable within [ack_timeout]; primary-only
            durability.  The payload is the lag diagnostic. *)

  type health = Healthy | Degraded of string

  type config = {
    nreplicas : int;  (** K ≥ 1 *)
    link : Link.config;
        (** both directions of every primary↔replica pair.  The
            retransmit timer follows it: 8 × [latency] cycles, doubling
            per silent round up to 64 × [latency] (the daemon supervisor's
            backoff shape); each round resends at most 8 batches. *)
    max_retained : int;
        (** retransmit-retention bound (batches, 0 = unbounded): past it
            the oldest batches are dropped and any replica still needing
            them is {e cut off} — excluded from retransmission and from
            retention accounting, reported through {!Make.health} as a
            sticky [Replica_lag]-shaped diagnostic.  Bounds primary DRAM
            under a long partition; the cut-off follower would need an
            out-of-band resync in a real deployment. *)
  }

  val default_config : ?nreplicas:int -> unit -> config
  (** 3 replicas over {!Link.default_config}; [max_retained = 4096]. *)

  (** {1 Lifecycle} *)

  val create : ?rcfg:config -> Dudetm_core.Config.t -> t
  (** Build the primary (device ["primary"]) and K followers (devices
      ["replica<i>"]) plus 2K directed links.  Requires [Config.Combined]
      (the wire unit is the combined group-commit record). *)

  val start : t -> unit
  (** Start the primary's daemons, each follower's Reproduce daemon, the
      per-replica ingest daemons and the primary-side ack/retransmit
      daemon.  Must run inside [Sched.run]. *)

  val stop : t -> unit
  (** Drain the primary, broadcast the final watermark, and ask every
      daemon to wind down. *)

  (** {1 Durability} *)

  val wait_acked : t -> int -> ack
  (** Block until transaction [tid] is quorum-acked, at most
      {!Config.ack_timeout} simulated cycles (polling — never a scheduler
      deadlock when every replica stalls).  On timeout, flips the cluster
      to {!Degraded} health and returns [Degraded_quorum]. *)

  val acked : t -> int
  (** The quorum-acked watermark (monotone). *)

  val atomically_ro :
    ?durable:bool -> t -> thread:int -> (Engine.tx -> 'a) -> ('a * int) option
  (** Read-only snapshot transaction on the primary
      ({!Engine.atomically_ro}).  With [~durable:true] the snapshot epoch
      pins at the {e quorum} watermark ({!acked}) rather than the
      primary-local durable ID: every value read would survive a failover
      (promotion truncates to the quorum prefix).  Under a full partition
      the watermark stalls and a pinned read of hot data waits for the
      links to heal — unlike writer durability waits, snapshot pin waits
      have no [ack_timeout] degrade path. *)

  val drain : ?require_quorum:bool -> t -> ack
  (** Drain the primary (its own [drain] semantics and budget), then wait —
      bounded by [ack_timeout] — for the quorum watermark to reach the
      primary's durable ID.  [require_quorum] turns the degraded outcome
      into {!Replica_lag}. *)

  val sync_followers : t -> unit
  (** Best-effort (bounded) wait for every reachable follower to ingest
      and replay up to the current acked watermark — for tests that compare
      replica state, and for clean shutdown. *)

  val health : t -> health
  (** [Degraded] after a quorum timeout {e or} — stickily — after the
      retransmit-retention cap cut a replica off. *)

  val cut_off : t -> bool array
  (** Per replica: has it lagged past [max_retained] and been cut off? *)

  val retained : t -> int
  (** Batches currently held for retransmission (always ≤ [max_retained]
      when the cap is enabled). *)

  (** {1 Partitions} *)

  val set_partitioned : t -> int -> bool -> unit
  (** Partition/heal both directions of replica [i]'s links. *)

  (** {1 Failover} *)

  type promotion = {
    promoted : int;  (** index of the replica promoted (longest prefix) *)
    candidates : int array;  (** per-replica scanned candidate durable IDs *)
    quorum_prefix : int;  (** the truncation bound actually applied *)
    truncated_txs : int;  (** never-acked tail discarded from the winner *)
    report : Dudetm_core.Dudetm.recovery_report;
  }

  val promote : t -> Engine.t * promotion
  (** Fail over after primary death: power-cut every replica device,
      recover each from its local durable prefix, promote the longest and
      truncate it to the quorum prefix.  Call after the primary's
      [Sched.run] has ended (the primary is dead and is not consulted). *)

  (** {1 Introspection} *)

  val primary : t -> Engine.t

  val replica : t -> int -> Engine.t

  val nreplicas : t -> int

  val quorum : t -> int
  (** Nodes (including the primary) a transaction must be sealed on:
      ⌈(K+1)/2⌉. *)

  val quorum_needed : nreplicas:int -> int
  (** Pure helper: quorum size for a K-replica cluster. *)

  val diagnostic : t -> string
  (** The [Replica_lag]-style one-line cluster diagnostic. *)

  val link_stats : t -> (Dudetm_sim.Stats.t * Dudetm_sim.Stats.t) array
  (** Per replica: (ship-direction, ack-direction) link counters. *)

  val stats : t -> Dudetm_sim.Stats.t
  (** ["batches_shipped"], ["batches_applied"], ["acks_received"],
      ["dup_frames"], ["ooo_frames"], ["crc_rejected"], ["retransmits"],
      ["retransmit_rounds"], ["backoff_cycles"], ["degraded_acks"],
      ["watermark_broadcasts"], ["retention_drops"],
      ["replicas_cut_off"]. *)
end
