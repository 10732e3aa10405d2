(** CRC-32 (IEEE 802.3 polynomial, reflected, the zlib/PNG CRC).

    Used to seal persistent-log records: a record is written together with
    its checksum in a single persist ordering, and recovery treats a
    checksum mismatch as a torn (incomplete) record.  The same function
    seals heap extents ([Crcdir]) and replica wire frames.

    Computed slicing-by-8 over native [int]s: eight 256-entry tables built
    once at module initialisation, eight bytes folded per step, and a
    bytewise tail.  It is the same function as the classic one-table
    bytewise loop, bit for bit, for every buffer, offset, length and
    [init]. *)

val crc32 : ?init:int32 -> bytes -> int -> int -> int32
(** [crc32 b off len] checksums [len] bytes of [b] starting at [off].
    [init] chains checksums across fragments (default the CRC of the empty
    string, [0l]): [crc32 ~init:(crc32 b 0 k) b k n] equals [crc32 b 0
    (k + n)].  Raises [Invalid_argument] unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length b]. *)

val crc32_bytes : bytes -> int32
(** Whole-buffer convenience. *)
