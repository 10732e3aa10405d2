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

(* One sealed log record as handed to the replication layer: the
   group-commit batch, reused verbatim as the wire unit.  [seq] is the
   record's ring sequence number (the replication stream's dedup key),
   [lo..hi] its contiguous transaction-ID range, [payload] the exact
   CRC-coverable bytes the primary persisted. *)
type shipment = {
  ship_seq : int;
  ship_lo : int;
  ship_hi : int;
  ship_payload : bytes;
}

type view = Flat of Mem.t | Paged of Shadow.t

(* A unit of Reproduce work: one whole combined record, or one
   transaction of a plain record.  [lo..hi] is its contiguous global
   transaction-ID range (lo = hi for plain items). *)
type item = {
  lo : int;
  hi : int;
  entries : Log_entry.t list;
  region : int;
  end_off : int;
  rec_next_seq : int;
  last_of_record : bool;
}

(* A sealed-but-unflushed batch in the pipelined (combined) persist
   path: the combiner has merged, combined and encoded it; the flusher
   still has to write it to NVM.  Lives in [t] so a combiner restart
   never re-seals (or drops) a batch already handed to the flusher. *)
type prepared_batch = {
  pb_entries : Log_entry.t list;  (* combined, end marks included *)
  pb_payload : bytes;
}

(* How the engine makes its TM: {!Dudetm.Make} passes its TM's [create]
   and [last_tid]. *)
type 'tm tm_ops = {
  create : seed:int -> Tm_intf.store -> 'tm;
  last_tid : 'tm -> int;
}

type 'tm t = {
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
  dirty_extents : (int, unit) Hashtbl.t;  (* heap extents Reproduce touched since last checkpoint *)
  allocator : Alloc.t;  (* current, serves pmalloc *)
  repro_alloc : Alloc.t;  (* allocator state as of [applied] *)
  applied_cell : int ref;  (* = applied; shared with the shadow's gate *)
  mutable durable : int;
  flushed_set : (int, unit) Hashtbl.t;
  mutable persisted_data : int;  (* data persisted for all tids <= this *)
  mutable checkpointed : int;
  queues : item Queue.t array;  (* per region, lo ascending *)
  mutable pending_recycle : (int * int * int) list;  (* region, end_off, next_seq *)
  (* Daemon working state lives in [t], not in daemon-local closures, so
     a supervisor restart resumes exactly where the failed daemon left
     off: staged-but-unflushed combined transactions, the next group ID,
     and reproduced-but-unpersisted dirty ranges all survive. *)
  staging : (int, Log_entry.t list) Hashtbl.t;  (* combined persist: tid -> body *)
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
  mutable drain_pace : float;  (* measured NVM drain cost, cycles/entry *)
  repro_ranges : (int * int) list ref;  (* applied but not yet persisted *)
  mutable cross_frontier : int;  (* max replayed cross-shard gtid *)
  (* Durable-only snapshot watermark, installed by layers that gate
     durability beyond the local device (shard effective IDs, replication
     quorum).  Thunk returns an engine-space tid; [None]: the local
     durable ID.  Must be a pure read — snapshot readers poll it. *)
  mutable ro_watermark : (unit -> int) option;
  (* Replication tap, installed by lib/replica: fires on the Persist
     daemon right after a log record's NVM persist completes (the batch
     is sealed locally). *)
  mutable ship_hook : (shipment -> unit) option;
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
  (* Wake conditions of the daemons' and callers' waits, and the [~on]
     list of each wait, built once here (see [Sched.wait_until]). *)
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

let build ops cfg nvm ~tid_base ~plogs ~ckpt ~rjournal ~crcdir ~badlines ~allocator
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
    dirty_extents = Hashtbl.create 256;
    allocator;
    repro_alloc;
    applied_cell;
    durable = tid_base;
    flushed_set = Hashtbl.create 256;
    persisted_data = tid_base;
    checkpointed = tid_base;
    queues = Array.init (Array.length plogs) (fun _ -> Queue.create ());
    pending_recycle = [];
    staging = Hashtbl.create 1024;
    next_flush = tid_base + 1;
    prepared = Queue.create ();
    combiner_done = false;
    flush_started_at = -1;
    open_at = Array.make cfg.Config.nthreads (-1);
    batch_bound = bound;
    batch_ewma = float_of_int bound;
    durable_waiters = 0;
    drain_pace = 0.0;
    repro_ranges = ref [];
    cross_frontier = 0;
    ro_watermark = None;
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

(* Publish a flushed record's IDs.  IDs that run on from [durable] (every
   combined record's do) advance it directly; only an ID beyond a gap —
   a per-thread record that overtook an older one — waits in
   [flushed_set] until the gap closes. *)
let rec note_ids t = function
  | [] -> ()
  | tid :: rest ->
    if tid = t.durable + 1 then t.durable <- tid
    else if tid > t.durable then Hashtbl.replace t.flushed_set tid ();
    note_ids t rest

let note_flushed t tids =
  let before = t.durable in
  note_ids t tids;
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
    Fun.protect
      ~finally:(fun () -> t.durable_waiters <- t.durable_waiters - 1)
      (fun () ->
        Sched.wait_until ~on:t.durable_on ~label:"durable id" (fun () -> t.durable >= tid))
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
    (List.length t.pending_recycle)
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
