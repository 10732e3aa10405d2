(** Persistent bad-line (stuck-line remap) table.

    Stuck-at NVM lines silently drop writes; once scrub detects one (a
    write probe that reads back stale), the line's address is recorded
    here and the heap allocator thereafter refuses to hand out space
    covering it — remapping future allocations away from the bad media.
    The table is a {!Dudetm_log.Sealed.Image}
    [magic | count | line\[capacity\] | crc], (3 + capacity) * 8 bytes, in
    its own NVM region, rewritten whole on every add; a corrupt table
    reformats empty (losing only remap entries, which re-detection
    restores — never data). *)

type t

val format : Dudetm_nvm.Nvm.t -> Config.t -> t
(** Initialize an empty table and persist it. *)

val attach : Dudetm_nvm.Nvm.t -> Config.t -> t * bool
(** Re-open the table from the media (persisted) image, not the cache.
    Returns [false] when the stored table failed validation (bad
    magic/CRC/count or poisoned) and was reformatted empty. *)

val add : t -> int -> bool
(** Record one bad line and persist the table.  Returns [false] when the
    table is full (the line stays usable-at-risk); adding a line already
    present is a no-op returning [true]. *)

val mem : t -> int -> bool

val lines : t -> int list
(** Recorded bad lines, ascending. *)

