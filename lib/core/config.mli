(** DudeTM instance configuration and NVM layout.

    The simulated NVM device is partitioned as:
    {v
      [0, heap_size)                      persistent data heap
      [heap_size, +meta_size)             meta block (allocator checkpoint,
                                          reproduced-upto watermark)
      [.., +crcdir_size)                  per-extent heap CRC directory
      [.., +badline_size)                 persistent bad-line table
      [.., +rjournal_size)                recovery intent journal
      [.., +hjournal_size)                migration handoff journal
      [.., +plog_regions * plog_size)     persistent redo-log rings
    v} *)

exception Invalid_config of string
(** Raised by {!validate} for inconsistent configurations.  A single clear
    error at [create]/[attach] time instead of downstream failures. *)

(** How a transaction acknowledges durability (Section 5.1's evaluated
    systems). *)
type mode =
  | Async  (** decoupled: [dtmEnd] returns after Perform (DUDETM) *)
  | Sync  (** the Perform thread flushes its own log and waits
              (DUDETM-Sync) *)
  | Inf  (** decoupled with unbounded volatile log buffers (DUDETM-Inf) *)

(** How the Persist step moves volatile logs into persistent rings.  Each
    constructor carries only what its Persist loop reads; both loops also
    flush a short batch once it has aged [batch_deadline] cycles. *)
type persist =
  | Per_thread of {
      daemons : int;
          (** Persist daemons; daemon [p] serves the vlogs [i] with
              [i mod daemons = p] (Section 3.3's ablation: one is enough) *)
      min_entries : int;
          (** floor of the adaptive per-record entry bound: a daemon never
              waits for fewer entries than this before the deadline *)
      max_entries : int;
          (** hard cap on entries per persisted log record; bounds both the
              single-flush channel occupancy (the commit-latency tail) and
              the volatile state lost by a crash mid-batch *)
    }
      (** one persistent ring per Perform thread; each record is a run of
          whole transactions from one volatile log, cut at the adaptive
          entry bound *)
  | Combined of {
      group : int;  (** transactions per sealed record (Figure 3's sweep) *)
      compress : bool;  (** LZ-compress each combined record *)
    }
      (** a single ring: a combiner merges every volatile log in global ID
          order, combines writes across [group] transactions
          (Section 3.3) and seals one record per group; a second daemon
          flushes sealed records while the next group combines *)

type t = {
  heap_size : int;  (** bytes of persistent data heap *)
  nthreads : int;  (** Perform threads *)
  mode : mode;
  pmem : Dudetm_nvm.Pmem_config.t;
  shadow_mode : Dudetm_shadow.Shadow.mode;
  shadow_frames : int option;  (** [None]: shadow as large as the heap *)
  vlog_capacity : int;  (** volatile log entries per thread *)
  plog_size : int;  (** bytes per persistent log ring *)
  meta_size : int;
  persist : persist;
  batch_deadline : int;
      (** max simulated cycles an open batch may age before it is flushed
          regardless of size; group commit never delays a transaction's
          durability by more than this *)
  reproduce_batch : int;  (** transactions applied per reproduce round *)
  checkpoint_records : int;  (** checkpoint + recycle every N completed log records *)
  log_append_cost : int;  (** cycles per [dtmWrite] log append *)
  flush_cost_per_entry : int;  (** persist-thread CPU work per entry *)
  compress_cost_per_byte : float;
  reproduce_cost_per_entry : int;
  drain_budget : int;
      (** simulated cycles {!Dudetm.drain} may consume before raising
          [Drain_stalled] with a daemon-state diagnostic *)
  bp_hwm_fraction : float;
      (** ring-occupancy fraction beyond which Perform threads are
          throttled (bounded wait) before starting new transactions *)
  bp_wait_budget : int;
      (** max simulated cycles a Perform thread blocks per backpressure
          throttle event before proceeding anyway *)
  pmalloc_wait_budget : int;
      (** max simulated cycles [pmalloc] waits for Reproduce to free space
          before raising [Pmem_exhausted] *)
  ack_timeout : int;
      (** max simulated cycles a durability wait may block on the {e quorum}
          ack watermark (replicated durability, [lib/replica]) before the
          cluster degrades to primary-only durability and reports
          [Degraded_quorum] — never an unbounded block behind a partitioned
          replica *)
  seed : int;
}

val default : t
(** 4-thread, 16 MiB heap, async mode, 1 GB/s / 1000-cycle NVM, no
    paging, one per-thread Persist daemon with entry bounds 16..128 — the
    paper's base configuration scaled to simulator-friendly sizes. *)

val root_size : int
(** Bytes of the reserved root block at heap offset 0 (never allocated). *)

val crc_extent : int
(** Bytes of heap covered per CRC-directory entry. *)

val badline_capacity : int
(** Max remappable stuck lines in the persistent bad-line table. *)

val plog_regions : t -> int
(** Number of persistent log rings: one per Perform thread, or a single
    merged ring under {!Combined}. *)

val meta_base : t -> int

val crcdir_base : t -> int
(** Base of the per-extent heap CRC directory ([heap_size / crc_extent]
    u64 slots, line-aligned). *)

val crcdir_size : t -> int

val badline_base : t -> int
(** Base of the persistent bad-line (stuck-line remap) table. *)

val badline_size : t -> int

val rjournal_base : t -> int
(** Base of the double-slot CRC-sealed recovery intent journal. *)

val hjournal_base : t -> int
(** Base of the migration handoff journal: two double-slot CRC-sealed
    records (handoff phase at [+0], partition descriptor at [+256]) used by
    the shard-migration coordinator on device 0 of a sharded instance. *)

val hjournal_size : t -> int

val plog_base : t -> int -> int
(** Base offset of ring [i]. *)

val nvm_size : t -> int
(** Total device size implied by the layout (line-aligned). *)

val validate : t -> unit
(** Raise {!Invalid_config} for inconsistent configurations (e.g. Sync
    mode under {!Combined}, an entry bound below its floor, heap not
    page-aligned, non-positive budgets, fractions outside [0, 1], a
    per-thread persist policy while {!Dudetm_sim.Inject.Skip_batch_seal}
    is armed). *)
