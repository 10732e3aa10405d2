(** Persistent per-extent heap CRC directory.

    Divides the data heap into fixed-size extents ({!Config.crc_extent}
    bytes) and keeps one CRC32 per extent in its own NVM region.  The
    engine refreshes the entries of every extent Reproduce dirtied at
    checkpoint time, so after a clean shutdown (and after recovery replay)
    the directory covers the whole heap: media corruption of checkpointed
    data — otherwise silent, since no log record re-validates it — is
    caught by the scrub pass re-verifying extents against the directory.

    Entries are stored as u64 slots (low 32 bits hold the CRC).  Between a
    Reproduce write and the next checkpoint an entry is intentionally
    stale; recovery replay re-applies exactly the records covering those
    extents and refreshes them. *)

type t

val format : Dudetm_nvm.Nvm.t -> Config.t -> t
(** Initialize the directory for a zero-filled heap and persist it. *)

val attach : Dudetm_nvm.Nvm.t -> Config.t -> t
(** Re-open an existing directory (entries are read on demand). *)

val n_extents : t -> int

(** {1 Dirty extents}

    The extents a replay rewrote since the directory last covered them:
    a set that allocates nothing once its arrays have grown to fit. *)

type dirty

val dirty : unit -> dirty
(** An empty set. *)

val mark : dirty -> int -> unit
(** Add an extent index; marking it again changes nothing. *)

val marked : dirty -> int
(** How many extents the set holds. *)

val dirty_extents : dirty -> int list
(** The set's extents in the order {!update} refreshes them: newest
    marked first. *)

val update : t -> dirty -> unit
(** [update t d] recomputes the CRCs of [d]'s extents from the device's
    latest image, newest marked first, and persists the touched slots
    under a single persist ordering, then empties [d].  Called at
    checkpoint time, when Reproduce has already persisted those extents
    (latest = persisted there). *)

val compute_latest : t -> int -> int
(** CRC of the extent's current latest-image content. *)

val compute_persisted : t -> int -> int
(** CRC of the extent's persisted content; raises [Nvm.Media_error] if the
    extent contains a poisoned line. *)

val verify_extent : t -> int -> [ `Ok | `Mismatch | `Poisoned ]
(** Check one extent's persisted content against its persisted directory
    entry. *)
