(** The versioned-lock STM kernel: TinySTM's time-based protocol written
    once for every STM in the repository.

    It owns the shared state (lock table, global version clock, attempt
    uids, statistics and the backoff RNG), the one read-set validation, the
    one commit-time routine and the one retry loop with its capped
    randomized backoff.  Callers keep only their access mode and
    cost model: {!Tinystm} (write-through: encounter-time locking and an
    undo list), {!Tinystm_wb} and the Mnemosyne baseline (write-back, via
    {!wb}), and {!Snapshot} (read-only: pin and extend).

    Only {!begin_tx}, {!conflict}, {!commit} and {!run}'s backoff charge
    simulated cycles (the store's [load]/[store] may also yield, under a
    paged shadow); no other function here is a scheduling point. *)

exception Retry
(** A conflict: the attempt was rolled back and {!run} retries it. *)

type t = {
  store : Tm_intf.store;
  locks : Lock_table.t;
  mutable clock : int;  (** the global version clock = last commit ID *)
  mutable next_uid : int;
  stats : Dudetm_sim.Stats.t;
  rng : Dudetm_sim.Rng.t;  (** backoff draws *)
}

val create : ?seed:int -> ?bits:int -> Tm_intf.store -> t
(** Defaults: seed 42, [2^20] stripes.  Every access mode charges
    {!Tm_intf.default_costs}. *)

val version : t -> int -> int
(** [version t stripe]: the stripe's committed version, or [-1] while an
    attempt owns it. *)

(** A read or held set, newest first: each entry a stripe and a version
    in one block. *)
type versions = Nil | Entry of { stripe : int; version : int; next : versions }

val valid : t -> held:versions -> versions -> bool
(** [valid t ~held reads]: every stripe of [reads] still carries its
    observed version — or is held by the caller and its saved
    pre-acquisition version (from [held]) matches.  One rule for the three
    cases: before commit, at commit (seeing through our own locks) and in a
    snapshot ([held = Nil]: an owned stripe always invalidates). *)

val tick : t -> int
(** Draw the next commit version (advance the clock and return it). *)

(** {1 Write paths} *)

(** Write-through's undo list: each written address and the value it
    held before, newest first. *)
type undo = No_undo | Undo of { addr : int; old : int64; next : undo }

type tx = {
  tm : t;
  uid : int;
  mutable rv : int;  (** snapshot (read version) *)
  mutable reads : versions;  (** each read stripe and its observed version *)
  mutable held : versions;
      (** each stripe locked and its pre-acquisition version *)
  mutable undo : undo;  (** write-through only *)
  mutable active : bool;
}

val begin_tx : t -> tx
(** Charge [begin_cost], draw a uid and take the clock as snapshot. *)

val check_active : tx -> string -> unit
(** [check_active tx what] raises [Invalid_argument] naming [what] once the
    attempt has finished. *)

val read : tx -> int -> int64
(** Validated load of a word the caller has not buffered: reads through a
    stripe the attempt holds, conflicts on one another attempt owns, and
    extends the snapshot (validating the read set) on a newer version.
    Records the read; charges nothing. *)

val lock : tx -> int -> bool
(** Lock a stripe for the attempt, saving its version in [held] ([true]
    if already held); [false] if another attempt owns it. *)

val conflict : tx -> 'a
(** Count an abort, roll back (undo list, then held stripes), charge
    [abort_cost] and raise {!Retry}. *)

val abandon : tx -> unit
(** Unless the attempt already finished: restore the undo list
    newest-first, release every held stripe at its saved version, and
    deactivate. *)

val user_abort : tx -> 'a
(** Roll back and raise {!Tm_intf.User_abort}. *)

val commit : ?publish:(t -> int) -> tx -> writes:int -> stripes:int list -> int
(** The commit-time routine.  Charges [commit_base + commit_per_write *
    writes]; with [writes = 0] commits read-only with ID 0.  Otherwise
    locks [stripes] (the write-back write set; write-through passes [[]],
    its stripes are held already), validates the read set seeing through
    every held stripe, runs [publish] — which makes the writes visible and
    draws the commit version with {!tick} (the default) — and releases every
    held stripe at that version.  Locking and validation are one atomic
    step; on failure it calls {!conflict}. *)

(** {2 Write-back access} *)

type wb = {
  tx : tx;
  wbuf : (int, int64) Hashtbl.t;  (** addr -> buffered value *)
  mutable worder : int list;  (** write addresses, newest first *)
}

val begin_wb : t -> wb

val wb_read : wb -> int -> int64
(** Read redirection: the buffered value, else {!read}. *)

val wb_write : wb -> int -> int64 -> unit

val wb_commit : wb -> publish:(t -> int) -> int
(** {!commit} with commit-time locking over the write set's stripes (sorted,
    deduplicated). *)

(** {1 Retry loop} *)

type flavour =
  | Write  (** [tm.attempt] span; counted and traced [tm.backoff] *)
  | Snapshot  (** [snapshot.ro] span; counted backoff *)
  | Bare  (** no span, uncounted backoff (Mnemosyne's instrumented STM) *)

val run :
  ?on_retry:(unit -> unit) ->
  t ->
  flavour ->
  start:(t -> 'tx) ->
  finish:('tx -> int) ->
  abandon:('tx -> unit) ->
  ('tx -> 'a) ->
  ('a * int) option
(** [run t flavour ~start ~finish ~abandon f] runs [f] on attempts from
    [start] and closes each with [finish] until one returns, taking a
    randomized exponential backoff (64 to 4,159 cycles, the range doubling
    per round) after each {!Retry}.  [on_retry] runs after every attempt
    that did not commit; [abandon] after one that ended in
    {!Tm_intf.User_abort} or another exception (re-raised).  Returns
    [Some (result, finish tx)], or [None] on a user abort. *)
