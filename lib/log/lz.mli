(** From-scratch LZ77 byte compressor (lz4 replacement).

    The paper compresses combined redo logs with lz4 before flushing
    (Section 3.3); the sealed container has no lz4 binding, so this module
    implements an lz4-style block codec: greedy hash-table match finding,
    minimum match 4, 16-bit offsets, and token-encoded sequences of
    literals + match.  Only the compression {e ratio} on log payloads
    matters for Figure 3, which any LZ-class codec of this shape delivers.

    Format: a stream of sequences.  Each sequence is one token byte — high
    nibble = literal count, low nibble = match length − 4, value 15 marking
    an extension byte chain (add 255 per 0xFF byte plus the final byte) —
    followed by the literals, and, unless the sequence ends the stream, a
    2-byte little-endian match offset and the match-length extension. *)

val compress : ?pos:int -> ?len:int -> bytes -> bytes
(** [compress ?pos ?len src] compresses [src]'s bytes [\[pos, pos + len)]
    (default: all of [src]) into a fresh buffer. *)

val decompress : ?pos:int -> ?len:int -> bytes -> bytes
(** Inverse of {!compress}, over [src]'s bytes [\[pos, pos + len)]
    (default: all of [src]).  Raises [Invalid_argument] on malformed
    input. *)

val ratio : bytes -> float
(** [ratio b] is the space saved, [1 - compressed/original] (0 for empty
    input), i.e. the paper's "compression ratio over 69%". *)
