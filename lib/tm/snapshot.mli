(** Read-only snapshot transactions: lock-free, log-free, persist-free.

    A snapshot transaction pins an epoch on TinySTM's global version clock
    and reads the shadow store directly, validating every read against the
    versioned lock table with the same timestamp-extension rule the write
    path uses — but it acquires no locks, keeps no undo list, and draws no
    commit timestamp, so writers never see it and the persist pipeline
    never hears of it.

    Two modes:
    - {e fresh-epoch} ([pin = None]): the epoch starts at the current
      clock and extends toward it — reads see the newest committed state,
      which may not be durable yet.
    - {e durable-only} ([pin = Some p], DUMBO-style): the epoch may never
      exceed [p.watermark ()]; a read observing a newer stripe waits for
      durability to catch up, parked on [p.on].  Every returned value was written
      by a transaction at or below the watermark at the moment of the
      read, i.e. state that survives a power cut — possibly stale.

    The snapshot reads through the {!Stm_kernel} state of the TM it runs
    on (lock table, clock, stats and backoff RNG), so it needs no
    view of its own; its restart is the kernel's retry loop. *)

type ro
(** A running read-only snapshot. *)

val begin_ro : ?pin:Tm_intf.pin -> Stm_kernel.t -> ro
(** Open a snapshot.  [pin] selects durable-only mode. *)

val read : ro -> int -> int64
(** Read a word at the snapshot's epoch, extending it (validated) when the
    word committed later.  May raise {!Stm_kernel.Retry} — use {!run}. *)

val epoch : ro -> int
(** Current epoch; monotone within a snapshot. *)

val read_set_size : ro -> int

val abort : ro -> 'a
(** Cancel the snapshot; raises {!Tm_intf.User_abort}. *)

val finish : ro -> int
(** Close the snapshot and return its final epoch.  No validation and no
    ID draw: the per-read invariant already makes the read-set a
    consistent cut at the epoch. *)

val run :
  ?pin:Tm_intf.pin ->
  ?on_retry:(unit -> unit) ->
  Stm_kernel.t ->
  (ro -> 'a) ->
  ('a * int) option
(** Run a snapshot body with automatic restart on failed extension.
    Returns [Some (result, final_epoch)], or [None] if the body called
    {!abort}. *)
