(** Two-phase recovery from a crashed device (Section 3.6): a
    non-destructive scan of the checkpoint and the log rings ({!prepare}),
    then the destructive replay of the durable prefix ({!commit}). *)

val scan_items :
  Config.t ->
  Dudetm_log.Plog.record list ->
  ckpt_upto:int ->
  Engine_state.item list * (int, unit) Hashtbl.t * int
(** Replay items of the surviving records, sorted, every transaction ID
    they carry, and the durable ID: the largest contiguous extension of
    [ckpt_upto].  See [Dudetm.scan_items]. *)

type prepared
(** The scan's result, awaiting the cross-shard vote. *)

val prepare : Config.t -> Dudetm_nvm.Nvm.t -> prepared
(** See [Dudetm.Make.attach_prepare]. *)

val prepared_durable : prepared -> int

val prepared_frontier : prepared -> int

val prepared_fragments : prepared -> (int * int * int) list

val prepared_checkpoint_upto : prepared -> int

val commit :
  ('tm, 'h) Engine_state.tm_ops ->
  ?durable_cut:int ->
  prepared ->
  ('tm, 'h) Engine_state.t * Rjournal.report
(** See [Dudetm.Make.attach_commit]; [ops] makes the returned instance's
    TM. *)
