(** CRC-32 (IEEE 802.3 polynomial, reflected, the zlib/PNG CRC).

    Used to seal persistent-log records: a record is written together with
    its checksum in a single persist ordering, and recovery treats a
    checksum mismatch as a torn (incomplete) record.  The same function
    seals heap extents ([Crcdir]) and replica wire frames.

    Computed slicing-by-8 over native [int]s: eight 256-entry tables built
    once at module initialisation, eight bytes folded per step, and a
    bytewise tail.  It is the same function as the classic one-table
    bytewise loop, bit for bit, for every buffer, offset, length and
    chained start. *)

val crc32 : bytes -> int -> int -> int
(** [crc32 b off len] checksums [len] bytes of [b] starting at [off], as a
    native [int] in [\[0, 2^32)] (no [Int32] box).  Raises
    [Invalid_argument] unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length b]. *)

val chain : int -> bytes -> int -> int -> int
(** [chain init b off len] continues the checksum [init] of earlier
    fragments over [len] more bytes: [chain (crc32 b 0 k) b k n] equals
    [crc32 b 0 (k + n)], and [chain 0] is [crc32] (0 is the CRC of the
    empty string). *)

val crc32_bytes : bytes -> int
(** Whole-buffer convenience. *)

val set_slot : bytes -> int -> int -> unit
(** [set_slot b off crc] stores [crc] as the 64-bit slot word the
    on-device formats keep at [b]'s byte [off]: its 32 bits sign-extended,
    the bytes [Int64.of_int32] gave when the CRC was an [int32].  Only the
    low 32 bits are ever compared.  Nothing is boxed. *)
