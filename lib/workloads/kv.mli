(** Uniform key-value interface over the two table storages the paper's
    macro-benchmarks are built on (hash table or B+-tree). *)

type kind = Hash | Tree

type t = H of Hashtable_app.t | T of Bptree_app.t

val kind : t -> kind

val setup : ?desc:int -> Dudetm_baselines.Ptm_intf.t -> kind -> capacity:int -> t
(** [capacity] sizes the hash table; ignored for trees.  When [desc] is
    given, the table's descriptor is persisted there (two words for a hash
    table, one for a tree handle) so {!attach} can re-open it. *)

val attach : ?desc:int -> Dudetm_baselines.Ptm_intf.t -> kind -> t
(** Re-open a table from its persisted descriptor. *)

val insert_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> value:int64 -> bool

val lookup_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> int64 option

val update_tx : t -> Dudetm_baselines.Ptm_intf.tx -> key:int64 -> value:int64 -> bool

val insert : t -> thread:int -> key:int64 -> value:int64 -> bool

val lookup : t -> thread:int -> key:int64 -> int64 option

val update : t -> thread:int -> key:int64 -> value:int64 -> bool

val peek_lookup : t -> key:int64 -> int64 option

val plan_insert : t -> key:int64 -> int list
(** Static write-set planning; hash storage only (raises otherwise). *)
