(** TinySTM's write-back access mode (Section 4.1's road not taken).

    Writes are buffered in a transaction-local write set and applied at
    commit under commit-time locking; reads of one's own writes are
    redirected through the buffer.  DudeTM selects the write-through mode
    ({!Tinystm}) because it permits in-place updates on the shadow memory;
    this module exists to ablate that choice — being {!Tm_intf.S}, it plugs
    into the DudeTM functor unchanged (the out-of-the-box-TM claim,
    exercised by the ablation benchmark).

    The cost model adds the per-read write-set probe (18 cycles) that
    write-back access cannot avoid.  The buffer, commit-time locking,
    validation and retry are {!Stm_kernel}'s write-back path, shared with
    the Mnemosyne baseline; snapshots run on the same kernel state. *)

include Tm_intf.S
