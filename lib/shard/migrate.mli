(** Live migration of a key-range (a run of partition buckets) between
    shards, under traffic.

    Three decoupled phases, each sealed in the {!Handoff} journal before it
    takes effect:

    + {b Copy}: {!Make.begin_migration} seals a Copy handoff record and
      opens a {e double-write window} — application transactions touching
      the migrating range ({!Make.apply}) commit cross-shard fragment
      pairs to both owners while {!Make.copy_step} ships the source's
      committed values to the destination in chunked cross-shard
      transactions (serialized with the double-writes by the global cross
      lock).
    + {b Flip}: {!Make.flip} quiesces new range traffic, waits for the
      global frontier to pass the last window gtid (everything the window
      committed is durable on both owners), then seals Flip, the new
      partition descriptor stamped with the handoff epoch, and Cleanup
      before switching volatile routing.
    + {b Cleanup}: {!Make.cleanup_step} transactionally zeroes the
      source's slots for the moved range, then seals Idle.

    {!Make.attach} recovers idempotently: a Copy record rolls back (the
    source never stopped being authoritative), a Flip record rolls forward
    (reseal the descriptor if the cut hit between the seals, resume
    cleanup), a Cleanup record resumes cleanup.  Under the
    [Skip_handoff_seal] fault the flip switches volatile routing without
    sealing anything — the injected bug {e check --migrate} must catch. *)

module Partition := Dudetm_workloads.Partition

module Make (Tm : Dudetm_tm.Tm_intf.S) : sig
  module Sh : module type of Shard.Make (Tm)

  type resume =
    | Clean  (** no migration was in flight *)
    | Rolled_back of Handoff.plan  (** crashed before the flip sealed *)
    | Resumed of Handoff.plan
        (** crashed at or after the flip; ownership is with [dst] and
            cleanup is pending *)

  type t

  (** {1 Lifecycle} *)

  val create : Sh.t -> part:Partition.t -> nkeys:int -> slot_of:(int -> int) -> t
  (** Format the handoff journal on device 0 with [part] (must be a
      [Buckets] partition over [Sh.nshards] shards) as the initial
      descriptor, epoch 1.  Keys are dense indices [0 .. nkeys-1];
      [slot_of] maps a key to its heap offset (the same on every shard). *)

  val attach : Sh.t -> nkeys:int -> slot_of:(int -> int) -> t * resume
  (** Recover the coordinator from device 0 after a crash (call after
      [Sh.attach]).  Raises {!Partition.Invalid_partition} when the
      persisted descriptor is torn, corrupt, or sealed for a different
      shard count. *)

  (** {1 Routing} *)

  val partition : t -> Partition.t
  (** Current volatile routing. *)

  val epoch : t -> int
  (** Epoch of the sealed descriptor. *)

  val owner : t -> int -> int

  val migrating : t -> (Handoff.plan * Handoff.phase) option

  (** {1 Routed application transactions} *)

  val apply :
    t -> thread:int -> key:int -> (int64 -> int64) -> (int64 * Sh.ack) option
  (** Read-modify-write [key] through [f], routed to its owner — or to
      {e both} owners as a cross-shard pair while the key's bucket is in
      the double-write window.  Blocks while a flip is sealing the key's
      range.  Returns the written value and the ack to wait on. *)

  (** {1 Driving a migration} *)

  val begin_migration : t -> src:int -> dst:int -> blo:int -> bhi:int -> unit
  (** Seal a Copy handoff for buckets [\[blo, bhi)] (all owned by [src])
      and open the double-write window. *)

  val copy_step : ?chunk:int -> t -> thread:int -> bool
  (** Ship up to [chunk] keys to the destination in one cross-shard
      transaction.  [true] once the whole range has been shipped. *)

  val flip : t -> unit
  (** Quiesce, wait for window durability, seal Flip + descriptor +
      Cleanup, switch routing. *)

  val cleanup_step : ?chunk:int -> t -> thread:int -> bool
  (** Zero up to [chunk] source slots of the moved range.  [true] once
      done (the Idle record is sealed). *)

  val migrate :
    ?chunk:int -> t -> thread:int -> src:int -> dst:int -> blo:int -> bhi:int -> unit
  (** [begin_migration]; [copy_step] to completion; [flip]; [cleanup_step]
      to completion. *)
end
