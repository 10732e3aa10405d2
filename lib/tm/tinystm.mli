(** Word-based, time-based software transactional memory.

    A from-scratch reimplementation of the TinySTM design the paper builds
    on (Felber, Fetzer, Marlier, Riegel): encounter-time locking over a
    striped versioned-lock array, a global version clock, write-through
    access with a volatile undo list (the access mode DudeTM selects,
    Section 4.1), timestamp snapshots with extension on read, and commit-time
    read-set validation.

    The transaction ID returned by {!commit} is the commit timestamp drawn
    from the global clock, so IDs of write transactions are contiguous and
    conflicting transactions' ID order matches their lock hand-off order —
    the invariant DudeTM's Reproduce step replays by.

    The versioned-lock protocol itself (validation, commit, retry) is
    {!Stm_kernel}'s; this module is its write-through access mode.  Its
    state {e is} the kernel state, so {!Snapshot} runs on it directly. *)

include Tm_intf.S with type t = Stm_kernel.t

val create_with_bits : ?seed:int -> bits:int -> Tm_intf.store -> t
(** Like [create], with an explicit lock-table size of [2^bits] stripes
    (used by the lock-table ablation benchmark). *)

