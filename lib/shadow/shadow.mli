(** Shared cross-transaction shadow memory (Sections 3.1, 4.3).

    A volatile DRAM mirror of the persistent heap, managed at page
    granularity and shared by all transactions, so the cost of loading a
    page from NVM amortizes across transactions.  Dirty shadow data is
    {e never} written back to NVM — an evicted page is simply discarded,
    because its updates are already captured in redo logs.

    The touching-ID protocol makes discarding safe: each page records the ID
    of the last transaction that wrote it; swapping a page back in waits
    until Reproduce has applied at least that transaction to the NVM home
    locations.

    A fault copies the page from NVM straight into its frame
    ({!Dudetm_nvm.Nvm.load_into_mem}): one blit, no page buffer.  A
    poisoned clean line in the page raises {!Dudetm_nvm.Nvm.Media_error}
    before the frame is claimed, so nothing is mapped and a retry after
    repair faults normally; a dirty line over poison is served from the
    cache.

    Two paging cost models are provided:
    - {e Software}: every access pays a page-table lookup (two memory
      references) plus a reference-count CAS; faults are cheap.
    - {e Hardware} (the paper's Dune/VT-x design): translation is free via
      the TLB, but evicting a page pays a VM-exit + IPI TLB shootdown. *)

type mode = Software | Hardware

type config = {
  mode : mode;
  page_bits : int;  (** page size = [2^page_bits] bytes *)
  frames : int;  (** shadow DRAM capacity in frames *)
  sw_access_cost : int;  (** per-access page-table walk, cycles *)
  sw_pin_cost : int;  (** reference-count CAS, cycles *)
  sw_fault_cost : int;  (** software fault handling, cycles *)
  hw_fault_cost : int;  (** VM-exit fault handling, cycles *)
  hw_shootdown_cost : int;  (** TLB shootdown on eviction, cycles *)
  copy_cycles_per_byte : float;  (** NVM->DRAM page copy *)
}

val default_config : mode -> frames:int -> config
(** 4 KiB pages and the calibrated cost constants. *)

type t

val create :
  config ->
  nvm:Dudetm_nvm.Nvm.t ->
  applied_id:(unit -> int) ->
  wake_applied:Dudetm_sim.Sched.cond ->
  t
(** [create cfg ~nvm ~applied_id ~wake_applied] mirrors the whole device
    address space.  [applied_id ()] must return the ID of the last
    transaction Reproduce has fully applied to NVM (the swap-in gate); a
    swap-in behind it parks on [wake_applied], which must be signalled
    after each advance of [applied_id ()]. *)

val config : t -> config

val page_of : t -> int -> int
(** Logical page number of a byte address. *)

(** {1 Data access (used by the TM store)} *)

val load_u64 : t -> int -> int64
(** Faults the page in if necessary (may raise
    {!Dudetm_nvm.Nvm.Media_error}, see above). *)

val store_u64 : t -> int -> int64 -> unit
(** Writes the shadow page only.  Faults the page in if necessary. *)

(** {1 Transaction integration} *)

val pin : t -> int -> unit
(** [pin t addr] increments the reference count of [addr]'s page, faulting
    it in first.  A pinned page cannot be evicted.  DudeTM pins every page
    a transaction touches until its touching IDs are settled; the engine
    keeps an attempt's pinned and written pages as two short lists, and
    neither {!unpin} nor {!set_touching} depends on their order. *)

val unpin : t -> int -> unit

val pinned_pages : t -> int

val resident : t -> int
(** Number of pages mapped to frames. *)

val set_touching : t -> page:int -> tid:int -> unit
(** Record that transaction [tid] is the most recent writer of [page]
    (monotone: smaller [tid]s never overwrite larger ones). *)

val touching : t -> page:int -> int

(** {1 Maintenance and statistics} *)

val stats : t -> Dudetm_sim.Stats.t
(** Counters: ["faults"], ["evictions"], ["shootdowns"], ["swapin_waits"]. *)
