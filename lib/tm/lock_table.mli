(** Striped versioned write-locks (TinySTM's lock array).

    Every aligned 64-bit word of the transactional address space hashes to a
    stripe.  A stripe's lock word is either a commit {e version} (timestamp
    of the last transaction that wrote it) or {e owned} by a running
    transaction identified by a unique attempt id.

    Stripes are allocated in chunks on the first write into them; an
    untouched stripe reads as version 0, free, exactly as a zero-filled flat
    table would. *)

type t

type word =
  | Version of int  (** free; version of the last committing writer *)
  | Owned of int  (** locked by the attempt with this uid *)

val create : ?bits:int -> unit -> t
(** [create ~bits ()] makes a table of [2^bits] stripes (default 20).  It
    costs [max 1 (2^bits / 4096)] words up front; each chunk of
    [min 4096 2^bits] stripes is allocated when first written. *)

val stripe_of_addr : t -> int -> int
(** Map a byte address of an aligned word to its stripe. *)

val read_word : t -> int -> word
(** [read_word t stripe]. *)

(** {!read_word} split in two for hot readers, which allocate no {!word}: *)

val version : t -> int -> int
(** [version t stripe] is the stripe's version if it is free, or [-1] if
    it is owned. *)

val owner : t -> int -> int
(** [owner t stripe] is the uid owning the stripe, or [-1] if it is
    free. *)

val acquire : t -> stripe:int -> uid:int -> int
(** Try to lock the stripe for attempt [uid].  Returns the previous version
    (needed to restore on abort) on success, or [-1], as {!version} does,
    if the stripe is owned by another attempt.  Re-acquiring a stripe
    already owned by [uid] returns [-1] — callers must check {!owner}
    first. *)

val release_to : t -> stripe:int -> version:int -> unit
(** Unlock a stripe, installing [version] (commit) or restoring the saved
    pre-acquisition version (abort). *)
