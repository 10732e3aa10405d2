(** Fixed-size open-addressing hash table on the persistent heap
    (Section 5.1's HashTable benchmark).

    Maps 64-bit keys to 64-bit values; collisions probe the next slot
    circularly, exactly as in the paper.  A slot is 24 bytes — key (0 =
    empty), tag, value — so an insert performs the benchmark's three
    transactional writes.

    Works over any {!Dudetm_baselines.Ptm_intf.t}.  On static-transaction systems (NVML) an
    operation first plans its write set by non-transactional probing, then
    re-validates inside the locked transaction and replans on staleness. *)

type t

val setup : ?desc:int -> Dudetm_baselines.Ptm_intf.t -> capacity:int -> t
(** Allocate a table of [capacity] slots (rounded up to a power of two)
    and persist its two-word descriptor (base, capacity) at [desc]
    (default: the start of the root block).  Runs one transaction. *)

val attach : ?desc:int -> Dudetm_baselines.Ptm_intf.t -> t
(** Re-open a table from its persisted descriptor (e.g. after crash
    recovery). *)

val insert : t -> thread:int -> key:int64 -> value:int64 -> bool
(** Insert or overwrite.  [false] if the table is full.  Keys must be
    non-zero. *)

val lookup : t -> thread:int -> key:int64 -> int64 option

val update : t -> thread:int -> key:int64 -> value:int64 -> bool
(** Overwrite the value of an existing key with a single transactional
    write (TATP's Update Location shape).  [false] if absent. *)

val insert_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> value:int64 -> bool
(** Compose an insert into an enclosing dynamic transaction. *)

val lookup_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> int64 option

val update_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> value:int64 -> bool

val plan_insert : t -> key:int64 -> int list
(** Write set an insert of [key] would need right now (static planning);
    also used by composite static transactions (TPC-C on NVML). *)

val peek_lookup : t -> key:int64 -> int64 option
(** Non-transactional lookup against the current volatile image. *)

val insert_planned :
  t -> Dudetm_baselines.Ptm_intf.tx -> plan:int list -> key:int64 -> value:int64 -> unit
(** Perform an insert through a previously planned write set (the
    [plan_insert] triple), inside a static transaction. *)

val plan_is_current : Dudetm_baselines.Ptm_intf.tx -> plan:int list -> key:int64 -> bool
(** Re-validate a planned insert inside the transaction: the planned slot
    must still be empty or already hold [key]. *)

val peek_bindings : t -> (int64 * int64) list
(** All (key, value) pairs, non-transactionally, in slot order. *)
