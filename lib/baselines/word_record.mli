(** The per-thread log record {!Mnemosyne} (redo: new values) and {!Nvml}
    (undo: old values) write: [header | n | (addr, value) × n], every field
    one little-endian 64-bit word. *)

val size : int -> int
(** Bytes of a record of [n] pairs: [16 + 16 n]. *)

val encode : tombstone:bool -> header:int64 -> int list -> (int -> int64) -> bytes
(** [encode ~tombstone ~header addrs value]: the record of [addrs], calling
    [value] once per address, in order.  A [tombstone] is one more zero
    word: an empty header that stops a recovery scan (Mnemosyne's). *)

val count : (int -> int64) -> off:int -> room:int -> int option
(** The pair count of the record at [off], read through [load], if it is
    non-negative and the whole record fits in [room] bytes. *)

val iter : (int -> int64) -> off:int -> int -> (int -> int64 -> unit) -> unit
(** [iter load ~off n f] calls [f addr value] on the record's first [n]
    pairs in order, loading each pair just before its call. *)
