(** One-level page table mapping logical (persistent-heap) pages to shadow
    DRAM frames, with a clock eviction scan.

    Pure mapping bookkeeping; costs, pinning and data movement live in
    {!Shadow}. *)

type t

val create : pages:int -> frames:int -> t

val frame_of : t -> int -> int
(** [frame_of t page] is the frame backing [page], or [-1] if it is not
    resident: the lookup every shadow access makes, so it allocates no
    option. *)

val resident : t -> int
(** Number of mapped frames. *)

val map : t -> page:int -> frame:int -> unit
(** Requires [page] unmapped and [frame] the frame {!free_frame} returns,
    which it claims. *)

val unmap_frame : t -> int -> unit
(** Release the frame's mapping (page becomes non-resident, frame free). *)

val free_frame : t -> int
(** The next frame {!map} claims (one with no mapping), or [-1] if every
    frame is mapped. *)

val clock_victim : t -> skip:(int -> bool) -> int option
(** Next mapped frame under the clock hand with [skip frame = false]; the
    hand advances past examined frames.  [None] if every mapped frame is
    skipped. *)

val has_victim : t -> skip:(int -> bool) -> bool
(** Whether {!clock_victim} would find a frame, without moving the hand: a
    pure read, safe inside a [Sched.wait_until] predicate. *)
