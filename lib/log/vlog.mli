(** Volatile per-thread redo-log buffer.

    A fixed-length circular buffer with head and tail cursors (Section 3.2).
    The Perform thread appends entries and an end mark at commit; a Persist
    thread consumes committed entries from the head.  When the buffer is
    full, {!append} blocks the Perform thread until Persist frees space —
    the paper's DUDETM mode.  The blocked producer is parked on a wake
    condition that every call shrinking the buffer ({!consume_to},
    {!pop_current_tx}, {!clear}) signals, so it is not polled.  An
    unbounded buffer never blocks — the paper's DUDETM-Inf
    configuration.

    Cursors are monotone entry counters, not wrapped indices, so absolute
    positions can be exchanged between producer and consumer without
    ambiguity. *)

type t

val create : ?unbounded:bool -> capacity:int -> unit -> t
(** [capacity] is in entries; it must exceed the largest transaction's
    entry count or the producer would deadlock against itself. *)

val capacity : t -> int

val unbounded : t -> bool

(** {1 Producer (Perform thread)} *)

val append : t -> Log_entry.t -> unit
(** Append one entry for the running transaction.  Blocks while the buffer
    is full (bounded mode). *)

val append_end : t -> tid:int -> unit
(** Seal the running transaction's entries with its end mark, publishing
    them to the consumer. *)

val pop_current_tx : t -> unit
(** Drop all entries appended since the last end mark — the paper's
    [vlog.PopToLastTx()], used on abort. *)

val current_tx_entries : t -> int
(** Entries appended by the running (unsealed) transaction. *)

(** {1 Consumer (Persist thread)} *)

val head : t -> int
(** First unconsumed position. *)

val committed : t -> int
(** Position one past the last sealed end mark: entries in
    [\[head, committed)] are safe to flush. *)

val get : t -> int -> Log_entry.t
(** [get t pos] reads the entry at absolute position [pos] in
    [\[head t, committed t)]. *)

val consume_to : t -> int -> unit
(** Advance the head, releasing space to the producer. *)

val length : t -> int
(** Entries currently resident (head to tail, including unsealed). *)

(** {1 Crash / stats} *)

val clear : t -> unit
(** Discard everything (the buffer is volatile: a crash empties it). *)

val total_appended : t -> int

val producer_blocks : t -> int
(** Number of times {!append} had to block on a full buffer. *)
