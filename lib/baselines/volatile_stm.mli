(** Volatile-STM baseline: plain TinySTM on DRAM, no durability.

    The paper's performance upper bound (Section 5.1): what DudeTM's
    Perform step would achieve if persistence were free. *)

val ptm : ?heap_size:int -> ?nthreads:int -> unit -> Ptm_intf.t
(** ["Volatile-STM"]: a 16 MiB heap and 4 threads unless given.
    Transactions "become durable" the moment they commit ([durable_id] =
    [last_tid]); [nvm] is [None]. *)

val ptm_htm : ?heap_size:int -> unit -> Ptm_intf.t
(** ["Volatile-HTM"], 4 threads over stock HTM conflict detection (Table
    4's upper bound for the HTM rows). *)
