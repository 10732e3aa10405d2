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

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val encoded_size : t -> int
(** Size of the binary encoding in bytes (tag byte + fields). *)

val encode_list : t list -> bytes
(** Serialize entries back-to-back (the persistent-log record payload). *)

val decode_list : bytes -> t list
(** Inverse of {!encode_list}.  Raises [Invalid_argument] on malformed
    input (recovery only calls it on checksummed payloads). *)

val tids : t list -> int list
(** Transaction IDs of all [Tx_end] marks, in order of appearance. *)

val cross_seals : t list -> (int * int * int) list
(** [(gtid, mask, tid)] of all [Cross] seals, in order of appearance. *)

val encode_plain : t list -> bytes
(** Serialize entries as an uncompressed persistent-record payload: the
    one-byte plain flag followed by {!encode_list}'s bytes, encoded into
    one buffer. *)

val frame_compressed : bytes -> bytes -> bytes
(** [frame_compressed plain comp] is the compressed payload — the one-byte
    LZ flag followed by [comp] — when [comp] is shorter than [plain]'s
    body, else [plain] itself.  [plain] is an {!encode_plain} payload and
    [comp] the LZ compression of its body (bytes [1..]). *)

val encode_payload : ?compress:bool -> t list -> bytes
(** Serialize entries as a persistent-record payload: a one-byte plain /
    LZ-compressed flag followed by the body.  With [compress] the body is
    LZ-compressed only when that actually shrinks it. *)

val decode_payload : bytes -> t list
(** Inverse of {!encode_payload}; raises [Invalid_argument] on a bad flag
    or malformed body.  A plain body is decoded in place, without copying
    it out of the payload.  Shared by engine recovery, follower ingest and
    the scrub subsystem so every reader of persisted records agrees on the
    framing. *)
