(** Deterministic keyspace partitioner for sharded storage.

    Maps 64-bit keys to shard indices as a pure function of a small
    descriptor, so the KV, YCSB and hash-table drivers place every key on
    the same shard before and after a crash.  Two schemes: [Hash]
    spreads keys with a fixed splitmix64 finalizer (platform-independent,
    no dependence on OCaml's polymorphic hash); [Buckets] carves
    [\[lo, hi)] into equal-width buckets each carrying an explicit owner
    shard — the unit of ownership live migration moves.  Keys outside the
    range clamp to the edge buckets; owners [\[|0; ...; n-1|\]] give each
    shard one contiguous slice.

    Bucket arithmetic is unsigned 64-bit throughout, so the full keyspace
    [\[min_int, max_int)] — whose span wraps signed subtraction —
    partitions correctly. *)

exception Invalid_partition of string
(** Raised by {!unseal} for a stale, torn or corrupt persisted descriptor,
    or one whose shard count does not match the attaching instance. *)

type scheme =
  | Hash
  | Buckets of { lo : int64; hi : int64; owners : int array }

type t

val hashed : nshards:int -> t

val buckets : nshards:int -> lo:int64 -> hi:int64 -> owners:int array -> t
(** Equal-width buckets over [\[lo, hi)] with bucket [b] owned by shard
    [owners.(b)].  Raises [Invalid_argument] on an empty range, an empty
    owner table, or an owner outside [\[0, nshards)]. *)

val shard_of : t -> int64 -> int
(** Stable shard assignment in [0, nshards). *)

val bucket_of : t -> int64 -> int
(** Stable bucket index in [0, {!nbuckets}).  For [Hash] the bucket {e is}
    the shard. *)

val nshards : t -> int

val nbuckets : t -> int

val scheme : t -> scheme

val owners : t -> int array
(** Copy of the bucket-owner table.  Raises [Invalid_argument] unless the
    scheme is [Buckets]. *)

val with_owner : t -> blo:int -> bhi:int -> owner:int -> t
(** Functional ownership flip: a new partition with buckets
    [\[blo, bhi)] owned by [owner].  Raises [Invalid_argument] unless the
    scheme is [Buckets]. *)

(** {1 Persistent descriptor} *)

val encode : t -> int64 array
(** Persistable descriptor: 3 words for [Hash]; [Buckets] appends one
    packed owner byte per bucket.  Store it (e.g. in the root block) so
    {!decode} rebuilds the identical mapping after re-attach. *)

val decode : int64 array -> t
(** Inverse of {!encode}; raises [Invalid_argument] on a malformed
    descriptor. *)

val seal : t -> int64 array
(** {!encode} plus a trailing CRC32 word over the descriptor words. *)

val sealed_words : t -> int

val unseal : ?expect_nshards:int -> int64 array -> t
(** Validate the CRC seal and decode.  Raises {!Invalid_partition} — never
    silently returns a mapping — when the words are short, the CRC
    mismatches (stale or corrupt descriptor), the descriptor is malformed,
    or [expect_nshards] disagrees with the persisted shard count. *)
