(** The Reproduce step (Section 3.4): one daemon replays durable records
    onto the home NVM locations in transaction-ID order, persists the
    reproduced data, checkpoints the allocator and watermark, and recycles
    the rings. *)

val redo_entries :
  Dudetm_nvm.Nvm.t ->
  Alloc.t ->
  extents:(int, unit) Hashtbl.t ->
  ranges:(int * int) list ref ->
  frontier:int ->
  Dudetm_log.Log_entry.t list ->
  int
(** Redo one replay item's entries onto the device: home stores (queued
    in [ranges] for the caller's persist ordering, their CRC extents marked
    in [extents]) and allocator replay.  Returns [frontier] raised to the
    highest sealed cross-shard global ID.  Shared with recovery replay. *)

val item_cross_gtid : Engine_state.item -> int
(** Highest cross-shard global ID sealed into the item (0: none). *)

val set_replay_gate :
  _ Engine_state.t ->
  on:Dudetm_sim.Sched.cond list ->
  (Engine_state.item -> bool) option ->
  unit
(** Install the replay gate and the conds Reproduce parks on with it.
    Raises [Invalid_argument] once the engine is started. *)

val spawn : _ Engine_state.t -> unit
(** Spawn the supervised Reproduce daemon. *)
