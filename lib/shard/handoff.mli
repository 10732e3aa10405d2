(** Persistent coordinator state for live shard migration.

    Two {!Dudetm_log.Sealed.Twin} records (pairs of 128-byte CRC-sealed
    slots, 32 + 8k bytes for k fields) in device 0's handoff-journal
    region at {!Dudetm_core.Config.hjournal_base}:

    - the {e partition descriptor} record — the authoritative
      {!Dudetm_workloads.Partition} mapping plus the handoff epoch that
      sealed it;
    - the {e handoff} record — the in-progress migration
      [{src; dst; range; epoch}] and its phase, which tells a recovering
      instance whether to roll the migration back ([Copy]) or forward
      ([Flip] / [Cleanup]).

    Every seal goes to the older slot under a monotone sequence number, so
    a power cut mid-seal leaves the previous record in force and recovery
    is idempotent. *)

module Nvm := Dudetm_nvm.Nvm
module Partition := Dudetm_workloads.Partition

type phase = Copy | Flip | Cleanup

type plan = { src : int; dst : int; blo : int; bhi : int; epoch : int }
(** A migration of buckets [\[blo, bhi)] from shard [src] to shard [dst],
    sealed under handoff epoch [epoch]. *)

type t

val format : Nvm.t -> base:int -> part:Partition.t -> epoch:int -> t
(** Initialise both records: descriptor [part] at [epoch], handoff Idle. *)

val attach : Nvm.t -> base:int -> nshards:int -> t
(** Read back both records after a crash.  Raises
    {!Partition.Invalid_partition} when the descriptor is torn, corrupt,
    or sealed for a different shard count. *)

val state : t -> (plan * phase) option
(** The sealed handoff, or [None] when idle. *)

val partition : t -> Partition.t

val epoch : t -> int

val seal_handoff : t -> (plan * phase) option -> unit
(** Persist a new handoff record ([None] seals Idle). *)

val seal_descriptor : t -> Partition.t -> epoch:int -> unit
(** Persist a new authoritative descriptor. *)
