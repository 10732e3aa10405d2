(** The Reproduce step (Section 3.4): one daemon replays durable records
    onto the home NVM locations in transaction-ID order, persists the
    reproduced data, checkpoints the allocator and watermark, and recycles
    the rings. *)

val redo :
  Dudetm_nvm.Nvm.t ->
  Alloc.t ->
  extents:Crcdir.dirty ->
  Engine_state.addrs ->
  frontier:int ->
  Engine_state.item ->
  int
(** The one redo routine: apply one replay item's entries, read in place
    from its record's body, onto the device — home stores (their
    addresses queued in the buffer for the caller's persist ordering,
    which {!Dudetm_nvm.Nvm.persist_words} issues newest first; their CRC
    extents marked in [extents]) and allocator replay.  Returns [frontier]
    raised to the item's highest sealed cross-shard global ID.  Shared
    with recovery replay. *)

val set_replay_gate :
  (_, _) Engine_state.t ->
  on:Dudetm_sim.Sched.cond list ->
  (Engine_state.item -> bool) option ->
  unit
(** Install the replay gate and the conds Reproduce parks on with it.
    Raises [Invalid_argument] once the engine is started. *)

val round : (_, _) Engine_state.t -> unit
(** One replay round: apply up to [reproduce_batch] items while the next
    may be applied, then persist their data under one persist ordering.
    Allocates nothing for an item whose heap extents are already marked
    dirty. *)

val checkpoint : (_, _) Engine_state.t -> unit
(** Fence the reproduced data, refresh the CRC directory for the dirty
    extents, write the checkpoint and recycle every ring up to its
    furthest replayed record. *)

val spawn : (_, _) Engine_state.t -> unit
(** Spawn the supervised Reproduce daemon. *)
