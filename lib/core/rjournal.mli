(** Recovery intent journal.

    Recovery ({!Dudetm.Make.attach}) and offline scrub themselves mutate
    NVM — replaying log records onto the heap, resealing CRC extents,
    writing probe patterns into suspected-stuck lines, recycling rings.
    To make those paths idempotent under a crash at {e any} persist
    boundary, every destructive recovery-time write is ordered behind a
    small CRC-sealed intent sealed here first:

    - {!Probe}: scrub is about to overwrite [line] with a test pattern;
      [original] is the word it must restore.  A crash between the pattern
      write and the restore leaves the journal pointing at the damage, and
      the next [attach]/[scrub] undoes it before trusting the heap.
    - {!Replay}: [attach] has computed its recovery verdict (durable ID and
      report counters) and is about to mutate the heap/checkpoint/rings.
      A re-attach after a crash mid-recovery adopts the sealed verdict, so
      the recovery report converges no matter where the crash landed.

    The journal is a {!Dudetm_log.Sealed.Twin} of two 128-byte slots, like
    {!Checkpoint}: each write goes to the older slot under the next
    sequence number, so a torn intent write leaves the previous intent in
    force.  A slot record is [seq | len | kind | fields | crc], 32 + 8k
    bytes for an intent of k fields. *)

(** What recovery converged on ({!Dudetm.recovery_report} is this
    record). *)
type report = {
  durable : int;  (** recovered durable ID: state equals this prefix *)
  replayed_txs : int;  (** durable transactions replayed from logs *)
  discarded_txs : int;  (** flushed but non-durable transactions dropped:
                            their logs landed beyond a gap left by a log
                            that never made it, so they were never
                            acknowledged and are abandoned (Section 3.5) *)
  discarded_records : int;  (** log records abandoned for that reason; torn
                                records are additionally rejected by their
                                checksums during the scan *)
  corrupted_records : int;  (** once-sealed records destroyed by media
                                faults: mid-ring CRC failures bridged by
                                the tolerant ring scan, plus rings whose
                                header was lost.  Transactions above the
                                resulting gap are abandoned (counted in
                                [discarded_txs]) — reported, never
                                silently served *)
  quarantined_lines : int;  (** distinct device lines covered by corrupted
                                record bytes *)
}

type intent =
  | Idle  (** no recovery in progress *)
  | Replay of report
      (** attach sealed this verdict before mutating; adopt it on re-attach *)
  | Probe of { line : int; original : int64 }
      (** scrub is probing [line]; restore [original] before trusting the
          heap *)

type t

val format : Dudetm_nvm.Nvm.t -> base:int -> t
(** Initialise both slots to {!Idle} (fresh device). *)

val attach : Dudetm_nvm.Nvm.t -> base:int -> t
(** Decode the newest valid slot.  If both slots are torn or poisoned no
    intent can ever have been sealed, so the journal self-heals back to
    {!Idle}. *)

val read : t -> intent

val write : t -> intent -> unit
(** Seal [intent] into the older slot and persist it before returning. *)

val undo_probe : t -> unit
(** If the sealed intent is a {!Probe} (a scrub crashed mid-probe), restore
    and persist the probed line's original word, then seal {!Idle}; a
    no-op otherwise.  Run before anything trusts the heap. *)
