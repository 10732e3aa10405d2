(** Persistent per-thread redo-log region.

    A ring of checksummed records inside the simulated NVM.  A record is a
    group of serialized redo-log entries (one or more transactions) sealed
    by a CRC, so a whole record becomes durable with a {e single} persist
    ordering — the decoupled design's "one persist order per transaction"
    (Sections 3.3, 3.5).  A torn record fails its CRC and recovery discards
    it together with everything after it in this ring.

    Only the head (recycle) cursor is persistent (sealed by its own CRC);
    the tail is rediscovered after a crash by scanning records, validated by
    a per-record sequence number so stale data from previous laps can never
    be mistaken for live records.

    Beyond the torn tail a clean crash can leave, media faults can damage a
    record {e mid-ring} or destroy the header itself.  {!attach_scan}, the
    one way back in, tolerates both: it resynchronizes past corrupted
    records (quarantining the damaged bytes and reporting how many sealed
    records were lost) and reformats a ring whose header is unreadable,
    salvaging a safe next sequence number so stale frames are never
    resurrected. *)

type t

type record = {
  seq : int;  (** per-ring record number, contiguous *)
  payload : bytes;  (** serialized {!Log_entry} list *)
  end_off : int;  (** monotone offset one past this record (for recycling) *)
}

(** Result of a fault-tolerant ring scan. *)
type scan = {
  records : record list;  (** surviving valid records, in seq order *)
  corrupted_records : int;
      (** sealed records lost to mid-ring corruption (gaps in the seq
          sequence bridged by resync), or 1 when the header itself was
          lost *)
  quarantined_lines : int;
      (** distinct device lines covered by corrupted record bytes *)
  header_lost : bool;
      (** the persistent header failed its magic/CRC check and the ring was
          reformatted (every record lost) *)
}

val header_size : int
(** Bytes reserved at the base of the region for the persistent header. *)

val record_overhead : int
(** Bytes of framing per record on top of the payload. *)

val format : Dudetm_nvm.Nvm.t -> base:int -> size:int -> t
(** Initialize an empty ring over [\[base, base+size)] of the device and
    persist its header. *)

val attach_scan : Dudetm_nvm.Nvm.t -> base:int -> size:int -> t * scan
(** Re-open a ring after a crash: reads the persistent head cursor, scans
    and validates records, repositions the tail after the last valid
    record, and returns the surviving records in order.  The scan reads
    the data area once, marking where a load would raise (a poisoned clean
    line).  One check validates every frame from that copy, for the
    forward walk and the resync search alike; the header-loss salvage
    shares its checksum.  A
    record that fails validation mid-ring (CRC mismatch, poisoned line,
    implausible frame) does not end the scan: the scanner searches forward
    for the next valid frame with a later sequence number, quarantines the
    damaged gap, and continues — so one corrupted record loses that
    record, not the whole ring suffix.  A ring whose header fails its
    magic/CRC check is reformatted with a salvaged sequence number
    ([header_lost = true]). *)

val data_capacity : t -> int

val free_space : t -> int

val used_space : t -> int

val append : ?persist:bool -> t -> bytes -> pos:int -> len:int -> unit
(** [append t b ~pos ~len] writes one record whose payload is [b]'s bytes
    [\[pos, pos + len)] and persists it (single persist ordering).  The
    header and then the payload are stored straight into the ring (split
    at its end when the record wraps), so a payload that sits inside a
    larger buffer — a replication frame — is appended where it is.  The
    record takes sequence number {!next_seq} and ends at the new
    {!tail_off}; nothing is allocated for it.  The caller must check
    {!free_space} ([record_overhead + len]) first; appending without
    space raises [Invalid_argument], as does a range outside [b].
    [persist] (default true) exists only for the seeded checker-validation
    mutant ({!Dudetm_sim.Inject.Early_durable_publish}): [false] leaves the
    record volatile, so a durable ID covering it is published before the
    record's persist fence. *)

val recycle_to : t -> end_off:int -> next_seq:int -> unit
(** Advance the persistent head past all records before [end_off]: they
    have been reproduced to their home locations and may be overwritten.
    Persists the header (the only persist ordering Reproduce needs) and
    signals {!space_cond}. *)

val space_cond : t -> Dudetm_sim.Sched.cond
(** Signalled by {!recycle_to}, the only call that adds free space: a
    writer waiting for room parks on it. *)

val tail_off : t -> int
(** The monotone offset one past the last record appended. *)

val next_seq : t -> int
(** The sequence number the next record takes. *)
