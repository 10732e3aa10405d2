(** Double-buffered persistent checkpoint in the meta block.

    Records the Reproduce watermark ([reproduced_upto]: every transaction
    with ID at or below it has its data persisted in the heap) together with
    the allocator free list as of that transaction.  The meta block is a
    {!Dudetm_log.Sealed.Twin} of two [size / 2] slots: each write goes to
    the older slot under the next sequence number, so a crash during a
    checkpoint write leaves the previous checkpoint intact.  A slot record
    is [seq | len | reproduced_upto | cross_frontier | (off, len)*n | crc],
    40 + 16n bytes for n free extents — its persist cost. *)

type state = {
  reproduced_upto : int;
  cross_frontier : int;
      (** Highest cross-shard global transaction ID whose fragment this
          region has replayed (0 when the region never held one).  Lets a
          sibling shard's recovery distinguish "fragment replayed and
          recycled" from "fragment never became durable". *)
  free_extents : (int * int) list;
}

type t

val format : Dudetm_nvm.Nvm.t -> base:int -> size:int -> state -> t
(** Initialize both slots; persists the initial [state] as checkpoint 0. *)

val attach : Dudetm_nvm.Nvm.t -> base:int -> size:int -> t * state
(** Read back the newest valid slot.  Raises [Invalid_argument] if neither
    slot validates (the meta block was never formatted). *)

val write : t -> state -> unit
(** Persist a new checkpoint into the older slot (one persist ordering).
    Raises [Invalid_argument] if the free list does not fit a slot. *)

val max_extents : t -> int
(** How many free extents a slot can hold. *)

val scrub :
  ?repair:bool ->
  Dudetm_nvm.Nvm.t ->
  base:int ->
  size:int ->
  [ `Ok | `Repaired | `Degraded | `Fatal ]
(** {!Dudetm_log.Sealed.Twin.scrub} of the meta block: [`Ok], [`Repaired]
    (one damaged slot rewritten from the survivor), [`Degraded] (the same
    without [repair]) or [`Fatal] — neither slot validates and the instance
    cannot recover. *)
