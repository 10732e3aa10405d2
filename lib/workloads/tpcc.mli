(** TPC-C, New Order transaction only (Section 5.1).

    A customer buys 5–15 items from a local warehouse: the transaction
    increments the district's next-order id, inserts an order, a new-order
    marker and one order line per item, and updates each item's stock row —
    the paper's write-intensive macro-benchmark (~180 writes per
    transaction on hash storage, Table 1).

    One warehouse, ten districts, shared item and stock tables, and
    per-district order tables (which is what makes the paper's
    fixed-district variant nearly conflict-free, Section 5.6).  Table
    storage is either hash or B+-tree; on static-transaction systems
    (NVML) only hash storage is supported, matching the paper. *)

type t

val setup :
  Dudetm_baselines.Ptm_intf.t ->
  storage:Kv.kind ->
  ?items:int ->
  ?customers:int ->
  ?expected_orders:int ->
  unit ->
  t
(** [expected_orders] sizes the hash-backed order tables.  The table
    directory is persisted in the root block, so {!attach} can re-open the
    database after a crash. *)

val attach : Dudetm_baselines.Ptm_intf.t -> t
(** Re-open a TPC-C database from its persisted root directory (after
    recovery).  Raises [Invalid_argument] if none exists. *)

val new_order : t -> thread:int -> rng:Dudetm_sim.Rng.t -> ?district:int -> unit -> int
(** Run one New Order transaction and return its commit ID.  [district]
    pins the district (the low-conflict variant assigns district
    [thread + 1]); otherwise it is drawn uniformly. *)

val payment : t -> thread:int -> rng:Dudetm_sim.Rng.t -> ?district:int -> unit -> int
(** TPC-C Payment (extension beyond the paper's New-Order-only driver):
    update warehouse/district YTD and the customer row, and write a history
    record.  Returns the commit ID.  Supports static-transaction systems. *)

val order_status : t -> thread:int -> rng:Dudetm_sim.Rng.t -> ?district:int -> unit -> int64
(** TPC-C Order-Status: read-only lookup of a random existing order; returns
    the order's total amount (0 if the district has no orders yet). *)

val transaction : t -> thread:int -> rng:Dudetm_sim.Rng.t -> ?district:int -> unit -> int
(** Mixed driver: ~45% New Order, 45% Payment, 10% Order-Status. *)

val order_count : t -> district:int -> int
(** Orders inserted so far in a district (non-transactional). *)

val consistency_check : t -> unit
(** Assert TPC-C invariants against the current image: per district,
    [next_o_id - 1] equals the number of orders and new-order markers;
    every order has exactly its declared number of order lines; stock
    order counts sum to the total number of order lines; warehouse YTD
    equals the district YTD sum equals total customer payments, which
    mirror customer balances.  Raises [Failure] — used by the
    crash-recovery tests. *)
