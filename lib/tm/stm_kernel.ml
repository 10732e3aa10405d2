(* The versioned-lock STM protocol, written once.  Every time-based STM in
   the repository — TinySTM's write-through mode, its write-back mode, the
   read-only snapshots over either, and the STM inside the Mnemosyne
   baseline — runs on this state, this read-set validation, this
   commit-time routine and this retry loop; the callers keep only their
   access mode (where writes go before commit) and their cost model.

   Lock-word encoding and striping live in [Lock_table]; this module is the
   only one that interprets a lock word. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Trace = Dudetm_trace.Trace

exception Retry

type t = {
  store : Tm_intf.store;
  locks : Lock_table.t;
  mutable clock : int;
  mutable next_uid : int;
  stats : Stats.t;
  rng : Rng.t;
}

let create ?(seed = 42) ?(bits = 20) store =
  {
    store;
    locks = Lock_table.create ~bits ();
    clock = 0;
    next_uid = 1;
    stats = Stats.create ();
    rng = Rng.create seed;
  }

(* The stripe's committed version, or -1 while an attempt owns it. *)
let version t stripe = Lock_table.version t.locks stripe

(* A read or held set, newest first: one block per entry, where a list of
   pairs spends a pair and a cons cell. *)
type versions = Nil | Entry of { stripe : int; version : int; next : versions }

let rec held_version held stripe =
  match held with
  | Nil -> -1
  | Entry e -> if e.stripe = stripe then e.version else held_version e.next stripe

(* A read-set entry is still valid if its stripe carries the version we
   observed, or we hold the stripe and its saved pre-acquisition version
   matches.  Seeing through our own locks is what makes commit-time
   validation sound: acquisition replaced the version word with an
   ownership mark, and trusting ownership alone would let an attempt that
   read a stripe, lost a race to a conflicting committer, then locked the
   stripe itself validate a stale read — a lost update (found by the
   schedule explorer, lib/check).  Snapshots hold nothing, so to them an
   owned stripe always invalidates. *)
let rec valid t ~held = function
  | Nil -> true
  | Entry { stripe; version = v; next } ->
    (let cur = Lock_table.version t.locks stripe in
     if cur >= 0 then cur = v else held_version held stripe = v)
    && valid t ~held next

(* Draw the next commit version: contiguous across write transactions. *)
let tick t =
  let wv = t.clock + 1 in
  t.clock <- wv;
  wv

(* ---------------------------- write paths ----------------------------- *)

(* Write-through's undo list, newest first. *)
type undo = No_undo | Undo of { addr : int; old : int64; next : undo }

type tx = {
  tm : t;
  uid : int;
  mutable rv : int;  (* snapshot (read version) *)
  mutable reads : versions;  (* observed versions *)
  mutable held : versions;  (* pre-acquisition versions *)
  mutable undo : undo;
  mutable active : bool;
}

let begin_tx tm =
  Sched.advance Tm_intf.default_costs.begin_cost;
  let uid = tm.next_uid in
  tm.next_uid <- uid + 1;
  { tm; uid; rv = tm.clock; reads = Nil; held = Nil; undo = No_undo; active = true }

let check_active tx what = if not tx.active then invalid_arg (what ^ ": transaction not active")

let rec restore store = function
  | No_undo -> ()
  | Undo u ->
    store.Tm_intf.store u.addr u.old;
    restore store u.next

let rec release_saved locks = function
  | Nil -> ()
  | Entry e ->
    Lock_table.release_to locks ~stripe:e.stripe ~version:e.version;
    release_saved locks e.next

let rec release_at locks version = function
  | Nil -> ()
  | Entry e ->
    Lock_table.release_to locks ~stripe:e.stripe ~version;
    release_at locks version e.next

(* Restore written words newest-first (so the oldest value of a
   multiply-written address lands last), then hand every held stripe back
   at its pre-acquisition version.  Runs atomically: the restores are the
   only possible yield points, and they happen while the stripes are
   still locked. *)
let rollback tx =
  restore tx.tm.store tx.undo;
  release_saved tx.tm.locks tx.held;
  tx.active <- false

let abandon tx = if tx.active then rollback tx

let conflict tx =
  Stats.incr tx.tm.stats "aborts";
  rollback tx;
  Sched.advance Tm_intf.default_costs.abort_cost;
  raise Retry

let user_abort tx =
  rollback tx;
  raise Tm_intf.User_abort

(* Lock a stripe for this attempt (a no-op if we hold it already); [false]
   if another attempt owns it. *)
let lock tx stripe =
  let owner = Lock_table.owner tx.tm.locks stripe in
  if owner >= 0 then owner = tx.uid
  else
    match Lock_table.acquire tx.tm.locks ~stripe ~uid:tx.uid with
    | -1 -> false
    | prev ->
      tx.held <- Entry { stripe; version = prev; next = tx.held };
      true

let rec lock_all tx = function [] -> true | stripe :: rest -> lock tx stripe && lock_all tx rest

(* Validated load of a word outside the write buffer.  A version newer
   than the snapshot triggers extension: if the rest of the read set is
   untouched the snapshot slides forward instead of aborting. *)
let read tx addr =
  let tm = tx.tm in
  let stripe = Lock_table.stripe_of_addr tm.locks addr in
  let v = Lock_table.version tm.locks stripe in
  if v < 0 then
    if Lock_table.owner tm.locks stripe = tx.uid then tm.store.Tm_intf.load addr else conflict tx
  else
    let value = tm.store.Tm_intf.load addr in
    if v > tx.rv then
      if valid tm ~held:tx.held tx.reads then tx.rv <- tm.clock else conflict tx;
    tx.reads <- Entry { stripe; version = v; next = tx.reads };
    value

(* The commit-time routine: charge the commit, lock [stripes] (the
   write-back write set; write-through already holds its stripes),
   validate the read set through every held stripe, then let [publish]
   make the writes visible and draw the version with {!tick}, and release
   every held stripe at it.  A read-only attempt commits with ID 0. *)
let commit ?(publish = tick) tx ~writes ~stripes =
  let tm = tx.tm in
  let c = Tm_intf.default_costs in
  Sched.advance (c.commit_base + (c.commit_per_write * writes));
  if writes = 0 then begin
    Stats.incr tm.stats "read_only_commits";
    tx.active <- false;
    0
  end
  else if lock_all tx stripes && valid tm ~held:tx.held tx.reads then begin
    let wv = publish tm in
    release_at tm.locks wv tx.held;
    Stats.incr tm.stats "commits";
    tx.active <- false;
    wv
  end
  else conflict tx

(* Write-back access: writes are buffered and applied at commit under
   commit-time locking; reads of one's own writes are redirected through
   the buffer. *)
type wb = {
  tx : tx;
  wbuf : (int, int64) Hashtbl.t;  (* addr -> buffered value *)
  mutable worder : int list;  (* write addresses, newest first *)
}

let begin_wb tm = { tx = begin_tx tm; wbuf = Hashtbl.create 8; worder = [] }

let wb_read w addr =
  match Hashtbl.find_opt w.wbuf addr with Some v -> v | None -> read w.tx addr

let wb_write w addr value =
  if not (Hashtbl.mem w.wbuf addr) then w.worder <- addr :: w.worder;
  Hashtbl.replace w.wbuf addr value

let wb_commit w ~publish =
  let locks = w.tx.tm.locks in
  commit w.tx ~publish ~writes:(List.length w.worder)
    ~stripes:(List.sort_uniq compare (List.map (Lock_table.stripe_of_addr locks) w.worder))

(* ----------------------------- retry loop ----------------------------- *)

type flavour = Write | Snapshot | Bare

let span_begin = function
  | Write -> Trace.span_begin ~cat:"tm" "attempt"
  | Snapshot -> Trace.span_begin ~cat:"snapshot" "ro"
  | Bare -> ()

let span_end = function
  | Write -> Trace.span_end ~cat:"tm" "attempt"
  | Snapshot -> Trace.span_end ~cat:"snapshot" "ro"
  | Bare -> ()

(* Randomized exponential backoff, capped: the standard STM recipe. *)
let backoff t flavour round =
  let pause = 64 + Rng.int t.rng (min 4096 (64 lsl min round 10)) in
  if flavour <> Bare then begin
    Stats.incr t.stats "backoffs";
    Stats.add t.stats "backoff_cycles" pause
  end;
  if flavour = Write then begin
    Trace.sample ~cat:"tm" "backoff" pause;
    Trace.instant ~cat:"tm" "backoff" pause
  end;
  Sched.advance pause

(* A top-level loop rather than a local closure: a transaction's retry
   loop allocates nothing of its own. *)
let rec attempt t flavour ~start ~finish ~abandon ~on_retry f round =
  span_begin flavour;
  let tx = start t in
  match
    let result = f tx in
    (result, finish tx)
  with
  | pair ->
    span_end flavour;
    Some pair
  | exception Retry ->
    on_retry ();
    span_end flavour;
    backoff t flavour round;
    attempt t flavour ~start ~finish ~abandon ~on_retry f (round + 1)
  | exception e ->
    abandon tx;
    on_retry ();
    span_end flavour;
    (match e with Tm_intf.User_abort -> None | _ -> raise e)

let run ?(on_retry = fun () -> ()) t flavour ~start ~finish ~abandon f =
  attempt t flavour ~start ~finish ~abandon ~on_retry f 0
