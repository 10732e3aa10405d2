(** The Persist step (Section 3.3): daemons that drain the volatile logs
    into checksummed records in the persistent log rings and publish the
    durable ID.

    Both policies of {!Config.persist} share one batch clock (the
    [open_at] slots of {!Engine_state.t}), one cut-reason counter
    (["batch_size_flushes"], ["batch_deadline_flushes"],
    ["batch_drain_flushes"]), one seal (encode once, compress once) and
    one record path that appends, publishes durability and feeds
    Reproduce and the replication tap. *)

val scan_record : Config.t -> region:int -> bytes -> int -> int -> Engine_state.item
(** [scan_record cfg ~region body pos stop] is the replay-item rule for
    one record of ring [region] whose plain body is [body]'s bytes
    [\[pos, stop)] (see {!Dudetm_log.Log_entry.plain_body}): one item per
    transaction under {!Config.Per_thread}, one item over the record's
    contiguous ID range under {!Config.Combined}, each pointing into
    [body].  The items are chained in record order through their [next];
    the result is the first, or {!Engine_state.no_item}.  One in-place
    pass, no entry decoded, nothing allocated but the items.  Shared by
    the live Persist path, follower ingest, recovery and the offline
    scrub. *)

val flush_thread : (_, _) Engine_state.t -> int -> wait_space:bool -> bool
(** [flush_thread t i ~wait_space] writes the longest prefix of whole
    transactions in thread [i]'s volatile log that fits the adaptive entry
    bound and ring [i]'s free space as one record.  With [wait_space] it
    first waits for the ring to fit one transaction (synchronous mode).
    Returns whether a record was written. *)

val spawn : (_, _) Engine_state.t -> unit
(** Spawn the supervised Persist daemons of the configured policy: one
    per-thread cutter per [daemons], or the combiner and flusher pair. *)

val ingest_record : (_, _) Engine_state.t -> bytes -> pos:int -> len:int -> bool
(** Follower ingest: append a shipped payload, [b]'s bytes
    [\[pos, pos + len)] (a received frame's payload, in place), to ring 0
    and publish it as the flusher would.  A plain payload's replay item
    points into [b].  [false] when the ring lacks space; raises
    [Invalid_argument] when the batch does not extend the durable
    prefix. *)
