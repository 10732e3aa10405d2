(* The engine's shared state: one record that Perform ({!Dudetm.Make}),
   Persist, Reproduce and recovery all work on, plus what more than one
   step needs — durable-ID bookkeeping, daemon supervision and the drain
   lifecycle.  The record is polymorphic in the TM instance so that only
   Perform, inside the functor, ever touches the TM; the rest of the
   engine reads the TM's last transaction ID through a closure. *)

module Mem = Dudetm_nvm.Mem
module Nvm = Dudetm_nvm.Nvm
module Shadow = Dudetm_shadow.Shadow
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Inject = Dudetm_sim.Inject
module Log_entry = Dudetm_log.Log_entry
module Vlog = Dudetm_log.Vlog
module Plog = Dudetm_log.Plog
module Tm_intf = Dudetm_tm.Tm_intf
module Trace = Dudetm_trace.Trace

exception Drain_stalled of string

exception Daemon_fault of string

type view = Flat of Mem.t | Paged of Shadow.t

(* A unit of Reproduce work: one whole combined record, or one
   transaction of a plain record, read in place from the record's plain
   body.  [lo..hi] is its contiguous global transaction-ID range (lo = hi
   for plain items); its entries are [body]'s bytes [\[pos, stop)],
   [nentries] of them, and [cross] is the highest cross-shard global ID
   sealed among them (0: none).  The last item of a committed record
   carries the record's ring position for recycling; [end_off] is -1 on
   every other item and on recovery's.  A record's items are chained in
   record order through [next], the last one's being [no_item], so a
   scan hands them on without a list. *)
type item = {
  lo : int;
  hi : int;
  body : bytes;
  pos : int;
  stop : int;
  nentries : int;
  cross : int;
  region : int;
  mutable end_off : int;
  mutable rec_next_seq : int;
  mutable next : item;
}

let rec no_item =
  { lo = 0; hi = 0; body = Bytes.empty; pos = 0; stop = 0; nentries = 0; cross = 0;
    region = -1; end_off = -1; rec_next_seq = -1; next = no_item }

(* The chain from [it] on, as a list. *)
let rec item_list it = if it == no_item then [] else it :: item_list it.next

(* Home addresses replay stored but has not yet persisted, oldest first:
   the first [len] slots of a buffer that only grows, so a replayed write
   conses nothing. *)
type addrs = { mutable buf : int array; mutable len : int }

let addrs () = { buf = Array.make 64 0; len = 0 }

let push_addr a addr =
  if a.len = Array.length a.buf then begin
    let grown = Array.make (2 * a.len) 0 in
    Array.blit a.buf 0 grown 0 a.len;
    a.buf <- grown
  end;
  a.buf.(a.len) <- addr;
  a.len <- a.len + 1

(* A sealed-but-unflushed batch in the pipelined (combined) persist
   path: the combiner has merged, combined and encoded it; the flusher
   still has to write it to NVM.  Lives in [t] so a combiner restart
   never re-seals (or drops) a batch already handed to the flusher.
   [pb_plain] is its uncompressed payload, [pb_payload] itself unless
   LZ shrank it. *)
type prepared_batch = {
  pb_payload : bytes;
  pb_plain : bytes;
}

(* What {!Dudetm.Make} supplies: its TM's [create] and [last_tid], and
   [undo], which rolls back the engine-side state of a transaction
   handle ['h] whose attempt is discarded. *)
type ('tm, 'h) tm_ops = {
  create : seed:int -> Tm_intf.store -> 'tm;
  last_tid : 'tm -> int;
  undo : 'h -> unit;
}

type ('tm, 'h) t = {
  cfg : Config.t;
  nvm : Nvm.t;
  view : view;
  tm : 'tm;
  tm_last_tid : unit -> int;  (* the TM's last issued ID, before [tid_base] *)
  tid_base : int;
  vlogs : Vlog.t array;
  plogs : Plog.t array;
  ckpt : Checkpoint.t;
  rjournal : Rjournal.t;
  crcdir : Crcdir.t;
  badlines : Badline.t;
  dirty_extents : Crcdir.dirty;  (* heap extents Reproduce touched since last checkpoint *)
  allocator : Alloc.t;  (* current, serves pmalloc *)
  repro_alloc : Alloc.t;  (* allocator state as of [applied] *)
  applied_cell : int ref;  (* = applied; shared with the shadow's gate *)
  mutable durable : int;
  flushed_set : (int, unit) Hashtbl.t;
  mutable persisted_data : int;  (* data persisted for all tids <= this *)
  mutable checkpointed : int;
  queues : item Queue.t array;  (* per region, lo ascending *)
  (* What the next checkpoint recycles, per region: the furthest replayed
     record's end offset (-1: nothing) and next sequence number.
     [recycle_notes] counts the records replayed since the last
     checkpoint. *)
  recycle_end : int array;
  recycle_seq : int array;
  mutable recycle_notes : int;
  (* Daemon working state lives in [t], not in daemon-local closures, so
     a supervisor restart resumes exactly where the failed daemon left
     off: staged-but-unflushed combined transactions, the next group ID,
     and reproduced-but-unpersisted dirty ranges all survive. *)
  staging : (int, Log_entry.t list) Hashtbl.t;  (* combined persist: tid -> body, reversed *)
  mutable next_flush : int;  (* combined persist: next group's first tid *)
  prepared : prepared_batch Queue.t;  (* sealed batches awaiting NVM flush *)
  mutable combiner_done : bool;  (* combiner exited; flusher may too *)
  mutable flush_started_at : int;  (* ts of the in-flight NVM flush; -1 idle *)
  (* The batch clock: per open batch, the ts it opened, or -1.  Per-thread
     persist keys it by vlog; combined persist uses slot 0 for the oldest
     staged transaction. *)
  open_at : int array;
  mutable batch_bound : int;  (* adaptive entries-per-record bound *)
  mutable batch_ewma : float;  (* smoothed backlog-at-flush estimate *)
  mutable durable_waiters : int;  (* threads blocked in [wait_durable] *)
  (* The measured NVM drain cost, cycles/entry, in the one cell of a flat
     float array, so an update boxes nothing. *)
  drain_pace : float array;
  repro_addrs : addrs;  (* applied but not yet persisted *)
  mutable cross_frontier : int;  (* max replayed cross-shard gtid *)
  (* The pin durable-only snapshots take, in the TM's ID space: the local
     durable ID on [wake_durable] until a layer that gates durability
     beyond the local device (shard effective IDs, replication quorum)
     installs its own watermark and conds.  Built once, so a snapshot
     passes it as it is. *)
  mutable ro_pin : Tm_intf.pin option;
  (* The attempt in flight on each Perform thread, read-write and
     snapshot apart, and per thread the retry hook that undoes it: built
     once, so no transaction allocates a hook or a cell of its own. *)
  attempts : 'h option array;
  snapshots : 'h option array;
  retry_attempt : (unit -> unit) option array;
  retry_snapshot : (unit -> unit) option array;
  (* Replication tap, installed by lib/replica: fires on the Persist
     daemon right after a log record's NVM persist completes (the batch
     is sealed locally), handed the record's sequence number, its ID
     range and its payload as a byte range. *)
  mutable ship_hook :
    (seq:int -> lo:int -> hi:int -> bytes -> pos:int -> len:int -> unit) option;
  (* Replay gate over the next replay item, installed by the layer that
     owns a cross-engine durability rule: the sharding layer holds back
     a cross-shard fragment until every sibling is durable, a follower
     holds back what the cluster has not quorum-acked (replayed state
     cannot be un-replayed).  No engine has both.  [None]: no gating. *)
  mutable replay_gate : (item -> bool) option;
  fault_rng : Rng.t;  (* injected transient daemon failures *)
  mutable read_only : string option;  (* degraded mode: Some reason *)
  mutable stop_flag : bool;
  mutable draining : bool;
  mutable started : bool;
  stats : Stats.t;
  (* Wake conditions of the daemons' and callers' waits, and the cond
     list of each wait, built once here (see [Sched.wait_on]). *)
  wake_stop : Sched.cond;  (* [stop_flag] or [draining] set *)
  wake_persist : Sched.cond array;  (* per Persist daemon: a commit into one of its vlogs *)
  wake_flush : Sched.cond;  (* a sealed batch queued, or the combiner exited *)
  wake_seal : Sched.cond;  (* a sealed batch left [prepared] *)
  wake_durable : Sched.cond;  (* [durable] advanced *)
  wake_repro : Sched.cond;  (* a record was published: queued, durable, ring used *)
  wake_applied : Sched.cond;  (* [applied_cell] advanced: the shadow's swap-in gate *)
  persist_on : Sched.cond list array;
  flush_on : Sched.cond list;
  seal_on : Sched.cond list;
  durable_on : Sched.cond list;
  space_on : Sched.cond list array;  (* per ring: its space cond, [wake_stop] *)
  mutable repro_on : Sched.cond list;  (* plus the replay gate's conds *)
}

let applied t = !(t.applied_cell)

(* Undo the attempt in flight on [thread], if any, and free its slot. *)
let discard ops slots thread =
  match slots.(thread) with
  | Some h ->
    slots.(thread) <- None;
    ops.undo h
  | None -> ()

(* The local durable ID as a snapshot pin. *)
let local_pin t =
  { Tm_intf.watermark = (fun () -> t.durable - t.tid_base); on = t.durable_on }

let last_tid t = t.tid_base + t.tm_last_tid ()

let store_of_view = function
  | Flat mem -> { Tm_intf.load = Mem.get_u64 mem; store = Mem.set_u64 mem }
  | Paged sh -> { Tm_intf.load = Shadow.load_u64 sh; store = Shadow.store_u64 sh }

let make_view cfg nvm applied_cell wake_applied =
  match cfg.Config.shadow_frames with
  | None ->
    let mem = Mem.create cfg.Config.heap_size in
    Nvm.load_into_mem nvm 0 mem ~dst_off:0 ~len:cfg.Config.heap_size;
    Flat mem
  | Some frames ->
    let scfg = Shadow.default_config cfg.Config.shadow_mode ~frames in
    Paged (Shadow.create scfg ~nvm ~applied_id:(fun () -> !applied_cell) ~wake_applied)

let make ops cfg nvm ~tid_base ~plogs ~ckpt ~rjournal ~crcdir ~badlines ~allocator
    ~repro_alloc =
  let applied_cell = ref tid_base in
  let wake_applied = Sched.cond () in
  let view = make_view cfg nvm applied_cell wake_applied in
  let tm = ops.create ~seed:cfg.Config.seed (store_of_view view) in
  (* The per-thread cutter's adaptive bound starts at its cap; combined
     persist cuts at [group] and never reads it. *)
  let bound, daemons =
    match cfg.Config.persist with
    | Config.Per_thread p -> (p.max_entries, p.daemons)
    | Config.Combined _ -> (0, 1)
  in
  let wake_stop = Sched.cond () and wake_flush = Sched.cond () in
  let wake_seal = Sched.cond () and wake_durable = Sched.cond () in
  let wake_repro = Sched.cond () in
  let wake_persist = Array.init daemons (fun _ -> Sched.cond ()) in
  let attempts = Array.make cfg.Config.nthreads None in
  let snapshots = Array.make cfg.Config.nthreads None in
  let hooks slots =
    Array.init cfg.Config.nthreads (fun th -> Some (fun () -> discard ops slots th))
  in
  {
    cfg;
    nvm;
    view;
    tm;
    tm_last_tid = (fun () -> ops.last_tid tm);
    tid_base;
    vlogs =
      Array.init cfg.Config.nthreads (fun _ ->
          Vlog.create
            ~unbounded:(cfg.Config.mode = Config.Inf)
            ~capacity:cfg.Config.vlog_capacity ());
    plogs;
    ckpt;
    rjournal;
    crcdir;
    badlines;
    dirty_extents = Crcdir.dirty ();
    allocator;
    repro_alloc;
    applied_cell;
    durable = tid_base;
    flushed_set = Hashtbl.create 256;
    persisted_data = tid_base;
    checkpointed = tid_base;
    queues = Array.init (Array.length plogs) (fun _ -> Queue.create ());
    recycle_end = Array.make (Array.length plogs) (-1);
    recycle_seq = Array.make (Array.length plogs) 0;
    recycle_notes = 0;
    staging = Hashtbl.create 1024;
    next_flush = tid_base + 1;
    prepared = Queue.create ();
    combiner_done = false;
    flush_started_at = -1;
    open_at = Array.make cfg.Config.nthreads (-1);
    batch_bound = bound;
    batch_ewma = float_of_int bound;
    durable_waiters = 0;
    drain_pace = [| 0.0 |];
    repro_addrs = addrs ();
    cross_frontier = 0;
    ro_pin = None;
    attempts;
    snapshots;
    retry_attempt = hooks attempts;
    retry_snapshot = hooks snapshots;
    ship_hook = None;
    replay_gate = None;
    fault_rng = Rng.create ((cfg.Config.seed * 31) + 0x5eed);
    read_only = None;
    stop_flag = false;
    draining = false;
    started = false;
    stats = Stats.create ();
    wake_stop;
    wake_persist;
    wake_flush;
    wake_seal;
    wake_durable;
    wake_repro;
    wake_applied;
    persist_on = Array.map (fun c -> [ c; wake_stop ]) wake_persist;
    flush_on = [ wake_flush; wake_stop ];
    seal_on = [ wake_seal; wake_stop ];
    durable_on = [ wake_durable ];
    space_on = Array.map (fun p -> [ Plog.space_cond p; wake_stop ]) plogs;
    repro_on = [ wake_repro; wake_stop ];
  }

(* [make], then the default snapshot pin, which reads the record's own
   durable ID. *)
let build ops cfg nvm ~tid_base ~plogs ~ckpt ~rjournal ~crcdir ~badlines ~allocator
    ~repro_alloc =
  let t =
    make ops cfg nvm ~tid_base ~plogs ~ckpt ~rjournal ~crcdir ~badlines ~allocator ~repro_alloc
  in
  t.ro_pin <- Some (local_pin t);
  t

(* Record a high-water mark: counters are monotone, so push the counter
   up to [v] when it is a new maximum. *)
let stat_max stats key v =
  let cur = Stats.get stats key in
  if v > cur then Stats.add stats key (v - cur)

(* ------------------------------------------------------------------ *)
(* Daemon supervision and fault injection                              *)
(* ------------------------------------------------------------------ *)

(* Supervisor backoff after the first daemon restart, doubling per
   consecutive failure up to the cap (simulated cycles). *)
let backoff_base = 200

let backoff_cap = 100_000

(* Injected transient daemon failure.  Only raised at work-unit
   boundaries where every piece of in-flight state already lives in [t]
   (or in NVM), so a restart resumes from the persistent position without
   duplicating or dropping work. *)
let maybe_fault t name =
  let rate = Inject.daemon_fault_rate () in
  if rate > 0.0 && Rng.float t.fault_rng < rate then begin
    Stats.incr t.stats "daemon_faults";
    raise (Daemon_fault name)
  end

(* Restart a failed daemon with capped exponential backoff (seeded
   jitter).  Only the injected [Daemon_fault] is retried: a real bug
   escaping a daemon must still surface, or the checker would paper over
   genuine failures. *)
let supervise t loop =
  let failures = ref 0 in
  let rec go () =
    match loop () with
    | () -> ()
    | exception Daemon_fault _ ->
      Stats.incr t.stats "daemon_restarts";
      Trace.instant ~cat:"daemon" "restart" !failures;
      let ceiling = min backoff_cap (backoff_base lsl min !failures 20) in
      let half = max 1 ((ceiling + 1) / 2) in
      let wait = half + Rng.int t.fault_rng half in
      incr failures;
      Stats.add t.stats "daemon_backoff_cycles" wait;
      Sched.advance wait;
      go ()
  in
  go ()

(* Spawn one supervised background daemon. *)
let spawn_daemon t name loop =
  ignore (Sched.spawn ~daemon:true name (fun () -> supervise t (fun () -> loop t)))

(* ------------------------------------------------------------------ *)
(* Durable-ID bookkeeping                                              *)
(* ------------------------------------------------------------------ *)

(* Publish a flushed record's IDs: each item's [lo..hi] range, in record
   order.  IDs that run on from [durable] (every combined record's do)
   advance it directly; only an ID beyond a gap — a per-thread record
   that overtook an older one — waits in [flushed_set] until the gap
   closes. *)
let rec note_ids t it =
  if it != no_item then begin
    for tid = it.lo to it.hi do
      if tid = t.durable + 1 then t.durable <- tid
      else if tid > t.durable then Hashtbl.replace t.flushed_set tid ()
    done;
    note_ids t it.next
  end

let note_flushed t items =
  let before = t.durable in
  note_ids t items;
  while Hashtbl.mem t.flushed_set (t.durable + 1) do
    Hashtbl.remove t.flushed_set (t.durable + 1);
    t.durable <- t.durable + 1
  done;
  if t.durable > before then Sched.signal t.wake_durable

(* Advertise the wait: a Persist daemon holding an open batch for the
   group-commit deadline flushes immediately while anyone is blocked
   here, so batching never adds latency to a durability-bound caller. *)
let wait_durable t tid =
  if t.durable < tid then begin
    t.durable_waiters <- t.durable_waiters + 1;
    match Sched.wait_on t.durable_on ~label:"durable id" (fun () -> t.durable >= tid) with
    | () -> t.durable_waiters <- t.durable_waiters - 1
    | exception e ->
      t.durable_waiters <- t.durable_waiters - 1;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let mark_started t who =
  if t.started then invalid_arg (who ^ ": already started");
  t.started <- true

let drain_diagnostic t =
  let vlog_backlog =
    Array.fold_left (fun acc v -> acc + (Vlog.committed v - Vlog.head v)) 0 t.vlogs
  in
  let ring p = Printf.sprintf "%d/%d" (Plog.used_space p) (Plog.data_capacity p) in
  Printf.sprintf
    "drain stalled after %d cycles: last_tid=%d durable=%d applied=%d checkpointed=%d \
     vlog_backlog=%d ring_occupancy=[%s] pending_recycle=%d queued_items=%d stop=%b \
     daemon_restarts=%d daemon_backoff_cycles=%d bp_throttle_events=%d \
     bp_throttle_cycles=%d pmalloc_waits=%d read_only=%s"
    t.cfg.Config.drain_budget (last_tid t) t.durable (applied t) t.checkpointed vlog_backlog
    (String.concat "," (List.map ring (Array.to_list t.plogs)))
    t.recycle_notes
    (Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues)
    t.stop_flag
    (Stats.get t.stats "daemon_restarts")
    (Stats.get t.stats "daemon_backoff_cycles")
    (Stats.get t.stats "bp_throttle_events")
    (Stats.get t.stats "bp_throttle_cycles")
    (Stats.get t.stats "pmalloc_waits")
    (match t.read_only with None -> "no" | Some r -> Printf.sprintf "%S" r)

(* Mark the instance as draining without waiting.  The sharding layer
   sets this on every region before blocking in [drain]: a combined-mode
   persist daemon only flushes a partial trailing group once draining is
   set, and a cross-shard replay gate on one region can require exactly
   that trailing flush on a sibling. *)
let begin_drain t =
  t.draining <- true;
  Sched.signal t.wake_stop

let drain t =
  begin_drain t;
  let deadline = Sched.global_now () + t.cfg.Config.drain_budget in
  let drained () =
    let last = last_tid t in
    t.durable = last && applied t = last
  in
  (* The budget catches livelock — daemons burning simulated time without
     retiring transactions.  (True deadlock already raises
     [Sched.Deadlock].)  The predicate stays pure; the raise happens back
     on the caller's fiber. *)
  Sched.wait_until ~label:"drain" (fun () ->
      drained () || Sched.global_now () >= deadline);
  if not (drained ()) then raise (Drain_stalled (drain_diagnostic t))

let stop t =
  drain t;
  t.stop_flag <- true;
  Sched.signal t.wake_stop

(* No [drain]: a follower's [last_tid] never moves (no Perform), and its
   replay gate may legitimately hold back a suffix forever — just tell
   the Reproduce daemon to checkpoint what is applied and exit. *)
let stop_follower t =
  t.stop_flag <- true;
  begin_drain t
