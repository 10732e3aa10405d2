(** Cross-transaction write combination (Section 3.3, Figure 3).

    Within a group of consecutive committed transactions that is flushed
    atomically, only the last write to each address must reach the
    persistent log: earlier writes are superseded.  The Persist thread
    inserts group entries into a hash table in transaction order, letting
    later entries overwrite earlier ones — exactly the paper's algorithm.

    Allocation events and end marks are preserved: recovery needs every
    transaction ID and every pmalloc/pfree of the group. *)

type stats = {
  writes_in : int;
  writes_out : int;
  entries_in : int;
  entries_out : int;
}

(** {1 Incremental per-batch combination}

    Group commit feeds committed entries into a builder as they arrive and
    seals one batch at a time, so the combine work for batch [k+1] can run
    while batch [k]'s NVM transfer is still in flight.  A sealed batch is
    the fed entries combined: deduplicated writes (first-occurrence
    address order, each carrying its final value), allocation events in
    original order, then all end marks.  Replaying it atomically is
    state-equivalent to replaying the fed entries.  Sealing drains the
    builder; the sequence of sealed batches replays (in order) to exactly
    the state one monolithic combine over the concatenation would produce,
    because last-write-wins within a batch composes with replay-in-order
    across batches. *)

type builder

val builder : unit -> builder
(** A fresh builder with an empty open batch. *)

val feed : builder -> Log_entry.t -> unit
(** Add one entry to the open batch. *)

val feed_list : builder -> Log_entry.t list -> unit

val pending : builder -> int
(** Entries fed into the open batch since the last {!seal}. *)

val seal_payload : builder -> bytes * stats
(** Close the open batch: encode the combined batch straight into a plain
    record payload (the bytes of {!Log_entry.encode_plain} of the combined
    entries), and reset the builder for the next batch. *)

val seal : builder -> Log_entry.t list * stats
(** {!seal_payload}, decoded: the combined entries. *)
