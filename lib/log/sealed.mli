(** CRC-sealed NVM records: the one on-device format of the small
    metadata recovery trusts — the plog head cursor, the bad-line table,
    the checkpoint, the recovery intent journal and the migration handoff
    journal.

    A record is a run of little-endian 64-bit words followed by one crc
    word: the {!Checksum.crc32} of every byte before it, stored
    sign-extended (only its low 32 bits are compared).  A record is written
    with one store and one [persist] over exactly its bytes, so
    {b its byte length is its persist cost}: the lines it dirties, the bytes
    the persist flushes and the persist boundaries a crash can cut.  A
    caller that changes a record's word count moves every one of those
    numbers.

    Reads go through the CPU's view of the device ({!Dudetm_nvm.Nvm.load_bytes})
    unless [persisted] asks for the media image.  A CRC mismatch and a
    {!Dudetm_nvm.Nvm.Media_error} read the same: the record is invalid. *)

(** A fixed-length image [words | crc], [8 * (n + 1)] bytes for [n] words,
    rewritten in place.  A torn rewrite fails its CRC; what a lost image
    means is the caller's decision. *)
module Image : sig
  val write : Dudetm_nvm.Nvm.t -> off:int -> bytes -> unit
  (** [write nvm ~off b] seals an image built in the caller's buffer and
      persists it at [off] (one persist ordering): [b]'s first [8n]
      bytes hold the [n] little-endian words, and its length,
      [8 * (n + 1)], leaves the crc word's room.  Seals in place, so a
      writer that keeps its buffer rewrites the image allocating
      nothing. *)

  val read : ?persisted:bool -> Dudetm_nvm.Nvm.t -> off:int -> words:int -> int64 array option
  (** The [words] words of the image at [off]; [None] when torn, rotted or
      poisoned.  [persisted] (default false) reads the media image. *)
end

(** Two slots at [base] and [base + slot_size], each holding
    [seq | len | words\[len\] | crc], [24 + 8 len] bytes.  The newest valid
    slot (highest [seq]; slot 1 on a tie) is the record.  A write goes to
    the older slot with [seq + 1], so a torn write leaves the previous
    record in force.  [len] is bounded by the slot before any byte
    arithmetic: a rotted length word reads as an invalid slot. *)
module Twin : sig
  type t

  val max_words : slot_size:int -> int
  (** The most words a slot holds. *)

  val format : Dudetm_nvm.Nvm.t -> base:int -> slot_size:int -> int64 array -> t
  (** Write [words] into slot 0 at seq 0 and slot 1 at seq 1, so attach
      finds a valid record even if the first real write tears. *)

  val attach : Dudetm_nvm.Nvm.t -> base:int -> slot_size:int -> (t * int64 array) option
  (** The newest valid record and a writer positioned after it; [None]
      when neither slot validates. *)

  val write : t -> int64 array -> unit
  (** Seal [words] into the older slot at the next seq and persist it.
      Raises [Invalid_argument] if they exceed {!max_words}. *)

  val set_word : t -> int -> int -> unit
  (** [set_word t i w] puts word [i] of the next record, [Int64.of_int w],
      straight into the writer's slot buffer (kept across writes, grown
      when a record outgrows it), so a writer that knows its words need
      not build an array of them, nor box one. *)

  val commit : t -> words:int -> unit
  (** {!write} of the first [words] words set by {!set_word}. *)

  val scrub :
    ?repair:bool ->
    Dudetm_nvm.Nvm.t ->
    base:int ->
    slot_size:int ->
    [ `Ok | `Repaired | `Degraded | `Fatal ]
  (** Audit both slots without attaching.  [`Ok]: both valid.  One slot
      invalid: with [repair] (default) it is rewritten from the survivor at
      an older seq ([`Repaired]), so the survivor stays the newest;
      without, [`Degraded].  [`Fatal]: neither validates. *)
end
