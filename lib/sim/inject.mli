(** Checker-only fault injection: the seeded mutants and the injected
    daemon-failure rate.

    Each crash campaign ([lib/check]) proves it has teeth by catching one
    deliberately seeded bug: a checker that cannot detect these mutants
    proves nothing about the real engine.  The bug sites ask {!armed}
    directly, so no production configuration carries a mutant switch.

    {b Contract.}  Only [lib/check] and the tests arm a mutant or a fault
    rate, always through the scoped {!with_}; no bench, perfbench or
    example path does.  Outside a [with_] nothing is armed and the rate is
    0, which is the production engine. *)

(** The seeded bugs.  Each is caught by exactly one campaign
    ({!catalogue}). *)
type mutant =
  | No_fault
  | Early_durable_publish
      (** Persist step publishes the durable ID {e before} the log record's
          persist fence: a crash in the window loses acknowledged
          transactions.  Caught by [explore]. *)
  | Unfenced_reproduce
      (** Reproduce skips the persist fence on reproduced data before the
          checkpoint watermark advances: a crash after the checkpoint loses
          heap data the recovery believes is already home.  Caught by
          [explore]. *)
  | Skip_crc_verify
      (** Scrub skips re-verifying heap extents against the CRC directory:
          media corruption of checkpointed heap data goes undetected and
          wrong values are silently served after recovery.  Caught by
          [media]. *)
  | Skip_recovery_journal
      (** [attach] and [Scrub.scrub] skip the recovery intent journal:
          recovery-time NVM writes (stuck-line probes, replay verdicts) are
          no longer ordered behind a sealed intent, so a crash in the middle
          of recovery can leave a probe pattern in live data or a diverging
          recovery report.  Caught by [recovery]. *)
  | Skip_fragment_gate
      (** Reproduce ignores the cross-shard replay gate and applies a
          cross-shard fragment before its sibling fragments are durable on
          their shards: a crash in the window can leave a partial
          cross-shard transaction surviving recovery.  Caught by
          [shards]. *)
  | Skip_batch_seal
      (** The pipelined Persist stage publishes a batch's durable IDs when
          the batch is {e sealed} (combined, CRC'd and queued for flushing)
          instead of when its log record's NVM persist completes: a
          mid-pipeline crash — batch [k] durable, batch [k+1]
          sealed-but-unflushed — loses acknowledged transactions.  Caught
          by [batch].  Only the combined persist policy has the pipeline:
          [Config.validate] rejects a per-thread configuration while this
          mutant is armed. *)
  | Skip_quorum_gate
      (** The replication layer acknowledges a transaction at the
          {e primary-local} durable watermark instead of the quorum vector
          watermark: a primary death while the sealed batch is still in
          flight to the replicas loses acknowledged transactions on
          failover.  Caught by [replica]. *)
  | Skip_handoff_seal
      (** The live-migration coordinator flips key-range ownership in
          volatile routing {e without} sealing the handoff record and the
          new partition descriptor first: a power cut after the flip makes
          recovery read the stale descriptor, route the migrated range back
          to the source shard, and lose every write acknowledged on the new
          owner.  Caught by [migrate]. *)
  | Skip_snapshot_validate
      (** Read-only snapshot transactions skip the lock-table revalidation
          when extending their epoch past a concurrent commit: a reader
          that spans a writer's commit can return values from {e two}
          different epochs (a torn read-set).  Caught by [snapshot]. *)
  | Skip_admission_gate
      (** The serving front end ([lib/serve]) runs with its admission gate
          stubbed out: overload is never shed and write acknowledgements
          are released at {e commit} instead of at the shard's durable
          watermark.  A power cut mid-burst then loses acknowledged
          requests.  Caught by [serve]. *)

val catalogue : (mutant * string * string) list
(** Every seeded mutant with its CLI name ([--mutate NAME]) and the
    campaign that catches it:
    {v
      early-durable            explore
      unfenced-reproduce       explore
      skip-crc-verify          media
      skip-recovery-journal    recovery
      skip-fragment-gate       shards
      skip-batch-seal          batch
      skip-quorum-gate         replica
      skip-handoff-seal        migrate
      skip-snapshot-validate   snapshot
      skip-admission-gate      serve
    v} *)

val name : mutant -> string
(** The CLI name; ["none"] for {!No_fault}. *)

val of_name : string -> mutant
(** Inverse of {!name}; raises [Invalid_argument] for an unknown name. *)

val armed : mutant -> bool
(** Is this mutant seeded right now?  Allocates nothing: Reproduce's wait
    predicate asks it. *)

val daemon_fault_rate : unit -> float
(** Probability that a Persist/Reproduce daemon suffers an injected
    transient failure at a work-unit boundary (the engine draws from its
    own RNG, seeded by [Config.seed], only when this is above 0); the
    supervisor restarts it from its persistent position.  Exercised by the
    [daemons] campaign. *)

val with_ : ?mutant:mutant -> ?daemon_fault_rate:float -> (unit -> 'a) -> 'a
(** [with_ ?mutant ?daemon_fault_rate f] runs [f] with the given settings
    armed (an absent one keeps its current value) and restores the previous
    settings when [f] returns or raises.  Raises [Invalid_argument] before
    running [f] if the rate is outside [\[0, 1\]]. *)
