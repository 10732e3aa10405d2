(** Flat byte-addressable memory image.

    Both the simulated NVM and the shadow DRAM are built on this: a plain
    byte array with little-endian word accessors.  Addresses are byte
    offsets; 64-bit accesses must be 8-byte aligned (the STM locks stripes of
    aligned words, so alignment is an invariant, not a convenience). *)

type t

val create : int -> t
(** [create size] is a zero-filled image of [size] bytes. *)

val size : t -> int

val copy : t -> t

val blit_from : src:t -> t -> unit
(** [blit_from ~src dst] overwrites [dst] with [src]; sizes must match. *)

val get_u8 : t -> int -> int

val set_u8 : t -> int -> int -> unit

val get_u64 : t -> int -> int64
(** Aligned little-endian 64-bit load.  Raises [Invalid_argument] on
    unaligned or out-of-bounds addresses. *)

val set_u64 : t -> int -> int64 -> unit

val get_into : t -> int -> bytes -> unit
(** [get_into t off dst] copies [Bytes.length dst] bytes at [off] into
    [dst]. *)

val set_bytes : t -> int -> bytes -> unit

val set_sub : t -> int -> bytes -> pos:int -> len:int -> unit
(** [set_sub t off b ~pos ~len] copies [b]'s bytes [\[pos, pos + len)] to
    [off]. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit

val fill : t -> int -> int -> char -> unit
