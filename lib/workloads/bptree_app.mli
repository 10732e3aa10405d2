(** B+-tree over the persistent heap (Section 5.1's B+-Tree benchmark and
    the table storage for TPC-C, TATP and the YCSB key-value store).

    Maps 64-bit keys to 64-bit values.  Nodes hold up to 14 keys;
    leaves are chained.  All node accesses go through the transactional
    API, so operations compose into larger transactions (TPC-C updates
    several trees atomically).

    There is no deletion: the paper's workloads insert and update only.

    Not supported on static-transaction systems (NVML): the paper likewise
    omits B+-tree results for NVML. *)

type t

val create : Dudetm_baselines.Ptm_intf.t -> t
(** Allocate an empty tree in its own transaction. *)

val handle_addr : t -> int
(** Address of the root-pointer cell, e.g. to store in the root block. *)

val of_handle : Dudetm_baselines.Ptm_intf.t -> int -> t
(** Rebuild a handle (after recovery) from the root-pointer cell address. *)

(** {1 Operations inside an enclosing transaction} *)

val insert_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> value:int64 -> unit
(** Insert or overwrite. *)

val lookup_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> int64 option

val update_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> value:int64 -> bool
(** Overwrite an existing key's value with one transactional write;
    [false] if absent. *)

val fold_range_tx :
  t ->
  Dudetm_baselines.Ptm_intf.tx ->
  lo:int64 ->
  hi:int64 ->
  init:'a ->
  f:('a -> int64 -> int64 -> 'a) ->
  'a
(** Fold over the bindings with [lo <= key <= hi] in ascending key order
    (YCSB scan operations). *)

(** {1 Whole-transaction conveniences} *)

val insert : t -> thread:int -> key:int64 -> value:int64 -> unit

val lookup : t -> thread:int -> key:int64 -> int64 option

val update : t -> thread:int -> key:int64 -> value:int64 -> bool

(** {1 Test support} *)

val peek_bindings : t -> (int64 * int64) list
(** All bindings in key order, read non-transactionally (for model
    checks). *)

val check_invariants : t -> unit
(** Walk the tree non-transactionally and assert structural invariants
    (key order, child separation, leaf chaining).  Raises [Failure]. *)
