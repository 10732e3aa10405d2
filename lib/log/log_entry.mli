(** Redo-log entries.

    A committed transaction's redo log is the sequence of its [Write]
    entries (address and new value, Algorithm 2's [vlog.AppendEntry])
    followed by a [Tx_end] mark carrying the transaction ID.  Persistent
    allocation events travel in the same stream (Section 3.5's per-thread
    pmalloc/pfree log) so that recovery rebuilds the allocator from exactly
    the durable transactions. *)

type t =
  | Write of { addr : int; value : int64 }
  | Alloc of { off : int; len : int }
  | Free of { off : int; len : int }
  | Tx_end of { tid : int }
  | Cross of { gtid : int; mask : int; tid : int }
      (** Cross-shard fragment seal: this transaction (local id [tid]) is
          one fragment of global transaction [gtid], whose touched shards
          are the set bits of [mask].  Appended just before the fragment's
          [Tx_end]; recovery treats the fragment as replayable only once
          every sibling shard in [mask] holds its own durable seal for
          [gtid]. *)

val encoded_size : t -> int
(** Size of the binary encoding in bytes (tag byte + fields). *)

val encode_into : bytes -> int -> t -> int
(** [encode_into buf pos e] writes [e]'s encoding at [pos] and returns the
    position just after it. *)

val encode_write : bytes -> int -> addr:int -> value:int64 -> int
(** [encode_into] of a [Write], from its fields. *)

(** {1 Reading an encoded body in place}

    Replay walks a record's bytes instead of a decoded list: the entry at
    [pos] is read by its tag and fields. *)

type tag = Write_tag | Alloc_tag | Free_tag | Tx_end_tag | Cross_tag

val tag_at : bytes -> int -> stop:int -> tag
(** The tag of the entry at [pos] of a body ending at [stop].  Raises
    [Invalid_argument] on an unknown tag or an entry running past
    [stop]. *)

val tag_size : tag -> int
(** The encoded size of an entry with this tag. *)

val field : bytes -> int -> int -> int
(** [field buf pos i] is field [i] of the entry at [pos]: a [Write]'s
    addr (0) and value (1), an [Alloc]'s or [Free]'s off and len, a
    [Tx_end]'s tid, a [Cross]'s gtid, mask and tid. *)

val field_pos : int -> int -> int
(** [field_pos pos i]: where field [i] of the entry at [pos] starts (its
    8 bytes are little-endian). *)

val plain_payload : int -> bytes
(** [plain_payload len] is a fresh uncompressed payload with room for a
    [len]-byte body: the plain flag is set, the body (from position 1) is
    the caller's to encode. *)

val encode_plain : t list -> bytes
(** Serialize entries as an uncompressed persistent-record payload: the
    one-byte plain flag followed by the entries' encodings back to back,
    in one buffer. *)

val frame_compressed : bytes -> bytes -> bytes
(** [frame_compressed plain comp] is the compressed payload — the one-byte
    LZ flag followed by [comp] — when [comp] is shorter than [plain]'s
    body, else [plain] itself.  [plain] is an {!encode_plain} payload and
    [comp] the LZ compression of its body (bytes [1..]). *)

val encode_payload : ?compress:bool -> t list -> bytes
(** Serialize entries as a persistent-record payload: a one-byte plain /
    LZ-compressed flag followed by the body.  With [compress] the body is
    LZ-compressed only when that actually shrinks it. *)

val plain_body : bytes -> bytes * int
(** [plain_body payload] is [(buf, pos)]: the payload's entries are
    [buf]'s bytes [\[pos, Bytes.length buf)].  A plain payload is its own
    body (from position 1); an LZ one is decompressed once, into a fresh
    buffer.  Raises [Invalid_argument] on an empty payload or a bad flag.
    Shared by engine recovery, follower ingest and the scrub subsystem so
    every reader of persisted records agrees on the framing. *)

val is_plain : bytes -> int -> bool
(** [is_plain b pos]: the payload starting at [b]'s byte [pos] is plain,
    so its body is [b] itself from [pos + 1], read in place. *)

val decode_payload : bytes -> t list
(** Inverse of {!encode_payload}: {!plain_body}, decoded; raises
    [Invalid_argument] on a bad flag or malformed body. *)
