(* The engine's Perform step and its wiring.  Persist, Reproduce and
   recovery live in their own modules over the shared state record of
   {!Engine_state}; the functor adds the TM-typed transaction API and
   re-exports the rest under one name. *)

open Engine_state
module S = Engine_state

exception Pmem_exhausted

exception Drain_stalled = S.Drain_stalled

exception Read_only of string

exception Read_only_violation = Tm_intf.Read_only_violation

exception Daemon_fault = S.Daemon_fault

type recovery_report = Rjournal.report = {
  durable : int;
  replayed_txs : int;
  discarded_txs : int;
  discarded_records : int;
  corrupted_records : int;
  quarantined_lines : int;
}

let scan_items = Recovery.scan_items

let pmalloc_cost = 120

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  type item = S.item

  type prepared = Recovery.prepared

  (* An engine's state holds the attempt in flight on each thread, so the
     engine and the handle are one recursive definition. *)
  type t = (Tm.t, tx) S.t

  (* The handle of one attempt: a full TM transaction or a read-only
     snapshot.  The constructor decides which fast path [read] takes and
     makes [write] on a snapshot a typed error; a snapshot's handle holds
     only what a snapshot uses.  [live] turns false once the attempt has
     ended (committed, retried or aborted): every call through the handle
     checks it before any side effect.  [touched] lists the pinned shadow
     pages and [wrote] the pages written (for touching IDs), each page
     once, newest first.  A transaction touches a handful of pages, so a
     [List.mem] scan dedupes them without a per-attempt hash table. *)
  and tx =
    | Rw of {
        t : t;
        thread : int;
        tm_tx : Tm.tx;
        mutable live : bool;
        mutable touched : int list;
        mutable wrote : int list;
        mutable allocs : (int * int) list;  (* this attempt's pmallocs *)
        mutable frees : (int * int) list;  (* deferred pfrees *)
        mutable cross_seal : (int * int) option;  (* (gtid, mask) to seal at commit *)
      }
    | Snap of { t : t; ro : Tm.ro; mutable live : bool; mutable touched : int list }

  let page_addr sh page = page lsl (Shadow.config sh).Shadow.page_bits

  let rec unpin_pages view = function
    | [] -> ()
    | page :: rest ->
      (match view with Paged sh -> Shadow.unpin sh (page_addr sh page) | Flat _ -> ());
      unpin_pages view rest

  (* End the attempt's handle and unpin its pages: once per attempt, at
     its commit or its undo. *)
  let unpin_all = function
    | Rw r ->
      r.live <- false;
      unpin_pages r.t.view r.touched
    | Snap s ->
      s.live <- false;
      unpin_pages s.t.view s.touched

  let rec free_all allocator = function
    | [] -> ()
    | (off, len) :: rest ->
      Alloc.free allocator ~off ~len;
      free_all allocator rest

  (* Undo a discarded attempt and end its handle: a read-write attempt
     drops its log entries and refunds its pmallocs; every attempt unpins
     its pages.  The engine's per-thread retry hooks run it. *)
  let undo dtx =
    (match dtx with
    | Rw r ->
      Vlog.pop_current_tx r.t.vlogs.(r.thread);
      free_all r.t.allocator r.allocs
    | Snap _ -> ());
    unpin_all dtx

  let tm_ops =
    { S.create = (fun ~seed -> Tm.create ~seed);
      last_tid = Tm.last_tid;
      undo }

  (* ------------------------------------------------------------------ *)
  (* Lifecycle                                                           *)
  (* ------------------------------------------------------------------ *)

  let create ?(nvm_label = "nvm") cfg =
    Config.validate cfg;
    let nvm = Nvm.create ~label:nvm_label cfg.Config.pmem ~size:(Config.nvm_size cfg) in
    let regions = Config.plog_regions cfg in
    let plogs =
      Array.init regions (fun i ->
          Plog.format nvm ~base:(Config.plog_base cfg i) ~size:cfg.Config.plog_size)
    in
    let allocator =
      Alloc.create ~base:Config.root_size ~size:(cfg.Config.heap_size - Config.root_size)
    in
    let repro_alloc = Alloc.copy allocator in
    let ckpt =
      Checkpoint.format nvm ~base:(Config.meta_base cfg) ~size:cfg.Config.meta_size
        { Checkpoint.reproduced_upto = 0; cross_frontier = 0;
          free_extents = Alloc.extents allocator }
    in
    let crcdir = Crcdir.format nvm cfg in
    let badlines = Badline.format nvm cfg in
    let rjournal = Rjournal.format nvm ~base:(Config.rjournal_base cfg) in
    build tm_ops cfg nvm ~tid_base:0 ~plogs ~ckpt ~rjournal ~crcdir ~badlines ~allocator
      ~repro_alloc

  let attach_commit ?durable_cut p = Recovery.commit tm_ops ?durable_cut p

  let attach cfg nvm = attach_commit (Recovery.prepare cfg nvm)

  let start t =
    mark_started t "Dudetm.start";
    if t.cfg.Config.mode <> Config.Sync then Persist.spawn t;
    Reproduce.spawn t

  (* Follower mode (replicated durability, lib/replica): no Perform and no
     Persist of its own, only follower ingest and the Reproduce daemon. *)
  let start_follower t =
    mark_started t "Dudetm.start_follower";
    Reproduce.spawn t

  (* The rest of the public surface: the other steps' entry points,
     durability protocol and upper-layer hooks. *)
  let attach_prepare = Recovery.prepare
  let prepared_durable = Recovery.prepared_durable
  let prepared_frontier = Recovery.prepared_frontier
  let prepared_fragments = Recovery.prepared_fragments
  let prepared_checkpoint_upto = Recovery.prepared_checkpoint_upto
  let begin_drain = S.begin_drain
  let drain = S.drain
  let stop = S.stop
  let drain_diagnostic = S.drain_diagnostic
  let ingest_record = Persist.ingest_record
  let stop_follower = S.stop_follower
  let durable_id (t : t) = t.durable
  let applied_id = S.applied
  let last_tid = S.last_tid
  let wait_durable = S.wait_durable
  let wake_durable t = t.wake_durable
  let set_ro_watermark t ~on wm =
    t.ro_pin <-
      Some
        (match wm with
        | None -> local_pin t
        | Some f -> { Tm_intf.watermark = (fun () -> f () - t.tid_base); on })
  let set_ship_hook t hook = t.ship_hook <- hook
  let set_replay_gate = Reproduce.set_replay_gate
  let item_hi (it : item) = it.hi
  let item_cross_gtid (it : item) = it.cross

  (* ------------------------------------------------------------------ *)
  (* Perform step: the transaction API                                   *)
  (* ------------------------------------------------------------------ *)

  (* A handle whose attempt has ended raises before it touches anything:
     no page pinned, no cycle charged, no log entry appended, no space
     reserved. *)
  let check_live dtx what =
    match dtx with
    | Rw { live = true; _ } | Snap { live = true; _ } -> ()
    | Rw _ | Snap _ -> invalid_arg (what ^ ": transaction not active")

  (* [touched] with [addr]'s page pinned: the page is recorded only once
     it is pinned, so a fault that raises (a poisoned line) leaves nothing
     for [unpin_all] to undo. *)
  let pin_page sh touched addr =
    let page = Shadow.page_of sh addr in
    if List.mem page touched then touched
    else begin
      Shadow.pin sh addr;
      page :: touched
    end

  let read dtx addr =
    check_live dtx "Dudetm.read";
    match dtx with
    | Rw r ->
      (match r.t.view with Flat _ -> () | Paged sh -> r.touched <- pin_page sh r.touched addr);
      Tm.read r.tm_tx addr
    | Snap s ->
      (match s.t.view with Flat _ -> () | Paged sh -> s.touched <- pin_page sh s.touched addr);
      Tm.ro_read s.ro addr

  (* Every mutation refuses a snapshot's handle with the typed violation
     (there is nothing to roll back — snapshots own no locks and logged
     nothing), and a frozen instance's with the reason it was frozen. *)
  let write dtx addr value =
    check_live dtx "Dudetm.write";
    match dtx with
    | Snap _ -> raise Read_only_violation
    | Rw { t = { read_only = Some reason; _ }; _ } -> raise (Read_only reason)
    | Rw r ->
      let t = r.t in
      (match t.view with
      | Flat _ -> ()
      | Paged sh ->
        r.touched <- pin_page sh r.touched addr;
        let page = Shadow.page_of sh addr in
        if not (List.mem page r.wrote) then r.wrote <- page :: r.wrote);
      Trace.sample ~cat:"perform" "log_append" t.cfg.Config.log_append_cost;
      Sched.advance t.cfg.Config.log_append_cost;
      Vlog.append t.vlogs.(r.thread) (Log_entry.Write { addr; value });
      Stats.incr t.stats "log_entries";
      Tm.write r.tm_tx addr value

  let abort dtx =
    check_live dtx "Dudetm.abort";
    match dtx with Rw r -> Tm.user_abort r.tm_tx | Snap s -> Tm.ro_abort s.ro

  (* Request a cross-shard fragment seal: if this transaction commits with
     writes, a [Cross { gtid; mask; tid }] entry is logged just before its
     end mark.  Called by the sharding layer once the body has finished and
     the set of shards actually written is known. *)
  let seal_cross dtx ~gtid ~mask =
    match dtx with Rw r -> r.cross_seal <- Some (gtid, mask) | Snap _ -> raise Read_only_violation

  (* Allocation backpressure: concurrent transactions return space at
     commit ([pfree]) and abort (refunds), so a full heap is often
     transient.  Block within the configured budget and retry before
     giving up with [Pmem_exhausted]. *)
  let alloc_with_backpressure t n =
    match Alloc.alloc t.allocator n with
    | Some off -> Some off
    | None ->
      let could_ever_fit = n <= t.cfg.Config.heap_size - Config.root_size in
      let budget = t.cfg.Config.pmalloc_wait_budget in
      if budget <= 0 || (not (Sched.running ())) || not could_ever_fit then None
      else begin
        (* Poll with [Sched.advance] rather than [wait_until]: the wait is
           bounded by simulated time, and a time-based [wait_until]
           predicate can never come true when every other thread is also
           blocked (the scheduler would call it a deadlock).  Advancing
           always makes progress. *)
        Stats.incr t.stats "pmalloc_waits";
        Trace.span_begin ~cat:"perform" "pmalloc_wait";
        let result = ref None in
        let got elapsed =
          if elapsed > 0 then result := Alloc.alloc t.allocator n;
          !result <> None || t.stop_flag
        in
        let elapsed = Sched.poll ~budget ~step:(max 1 (budget / 32)) got in
        Stats.add t.stats "pmalloc_wait_cycles" elapsed;
        Trace.span_end ~cat:"perform" "pmalloc_wait";
        !result
      end

  let pmalloc dtx n =
    if n <= 0 then invalid_arg "Dudetm.pmalloc: non-positive size";
    check_live dtx "Dudetm.pmalloc";
    match dtx with
    | Snap _ -> raise Read_only_violation
    | Rw { t = { read_only = Some reason; _ }; _ } -> raise (Read_only reason)
    | Rw r -> (
      Sched.advance pmalloc_cost;
      match alloc_with_backpressure r.t n with
      | None -> raise Pmem_exhausted
      | Some off ->
        r.allocs <- (off, n) :: r.allocs;
        Vlog.append r.t.vlogs.(r.thread) (Log_entry.Alloc { off; len = n });
        (* Zero the first word transactionally: initializes the block and
           guarantees the transaction is a write transaction, so the Alloc
           entry is always sealed under a real transaction ID. *)
        write dtx off 0L;
        off)

  let pfree dtx ~off ~len =
    if len <= 0 then invalid_arg "Dudetm.pfree: non-positive size";
    check_live dtx "Dudetm.pfree";
    match dtx with
    | Snap _ -> raise Read_only_violation
    | Rw { t = { read_only = Some reason; _ }; _ } -> raise (Read_only reason)
    | Rw r ->
      write dtx off 0L;
      Vlog.append r.t.vlogs.(r.thread) (Log_entry.Free { off; len });
      r.frees <- (off, len) :: r.frees

  (* Backpressure: true when some ring is occupied beyond the configured
     high-water fraction.  A top-level scan: the admission gate and every
     write transaction ask, so the answer allocates nothing. *)
  let rec pressure_from plogs hwm i =
    i < Array.length plogs
    && (float_of_int (Plog.used_space plogs.(i))
        >= hwm *. float_of_int (Plog.data_capacity plogs.(i))
       || pressure_from plogs hwm (i + 1))

  let ring_pressure t = pressure_from t.plogs t.cfg.Config.bp_hwm_fraction 0

  (* Admission control applies only to a started, running asynchronous
     engine with a wait budget, and stands down once it drains or stops. *)
  let admission_active t =
    t.started && (not t.draining) && (not t.stop_flag)
    && t.cfg.Config.bp_wait_budget > 0
    && t.cfg.Config.mode <> Config.Sync
    && Sched.running ()

  (* Throttle a Perform thread about to start a transaction while a ring
     sits above its high-water mark: a bounded wait gives Persist/Reproduce
     a chance to recycle instead of letting producers run the rings into
     the hard full-waiting path.  Bounded so a stuck pipeline degrades to
     the existing full-ring behavior rather than blocking forever. *)
  let throttle_on_pressure t =
    if admission_active t && ring_pressure t then begin
      Stats.incr t.stats "bp_throttle_events";
      Trace.span_begin ~cat:"perform" "bp_throttle";
      (* Advance-based polling, not [wait_until]: see
         [alloc_with_backpressure].  The step is capped well below
         budget/32: batched persist and per-batch checkpoints clear ring
         pressure in thousands of cycles, so a coarse quantum would charge
         a throttled transaction far more wait than the pressure lasted
         (the old 62.5k-cycle step WAS the commit-latency tail). *)
      let budget = t.cfg.Config.bp_wait_budget in
      let elapsed =
        Sched.poll ~budget ~step:(max 1 (min (budget / 32) 1_000)) (fun _ ->
            not (ring_pressure t && (not t.stop_flag) && not t.draining))
      in
      Stats.add t.stats "bp_throttle_cycles" elapsed;
      Trace.span_end ~cat:"perform" "bp_throttle"
    end

  (* Rate-matched admission pacing.  When this thread's volatile log holds
     more than a quarter of its capacity, delay the next transaction in
     proportion to the excess, charged at the drain rate the persist
     daemons actually measured at the NVM channel.  Under saturation every
     transaction then pays a small, smooth share of the drain debt instead
     of a few unlucky ones absorbing the whole backlog in one vlog-full
     stall — the admission-control half of bounded group commit, and what
     turns a 150x p99/p50 commit-latency ratio into a single-digit one.
     Inactive until the first record flush ([drain_pace] = 0) and below
     the quarter-capacity low-water mark, so unsaturated runs never pay. *)
  let pace_admission t ~thread =
    if admission_active t && t.drain_pace.(0) > 0.0 then begin
      let vlog = t.vlogs.(thread) in
      if not (Vlog.unbounded vlog) then begin
        (* Pace against the global backlog, not just this thread's vlog:
           the shared channel drains one vlog at a time, so one log's
           occupancy sawtooths by a whole batch while the sum across
           producers moves smoothly — and a smooth signal is what keeps
           the paced latency distribution tight. *)
        let n = Array.length t.vlogs in
        let backlog = Array.fold_left (fun a v -> a + Vlog.length v) 0 t.vlogs in
        let low = n * Vlog.capacity vlog * 3 / 8 in
        let over = backlog - low in
        if over > 0 then begin
          let delay =
            int_of_float (float_of_int over *. t.drain_pace.(0) /. float_of_int n)
          in
          if delay > 0 then begin
            Stats.incr t.stats "pace_events";
            Stats.add t.stats "pace_cycles" delay;
            Sched.advance delay
          end
        end
      end
    end

  (* One transaction attempt, recorded in its thread's slot so that a
     conflict retry (or the end of a snapshot) can undo it. *)
  let begin_rw t ~thread tm_tx =
    let dtx =
      Rw { t; thread; tm_tx; live = true; touched = []; wrote = []; allocs = []; frees = [];
           cross_seal = None }
    in
    t.attempts.(thread) <- Some dtx;
    dtx

  let begin_snap t ~thread ro =
    let dtx = Snap { t; ro; live = true; touched = [] } in
    t.snapshots.(thread) <- Some dtx;
    dtx

  (* A thread runs one transaction and one snapshot at a time on an
     engine: its volatile log and its attempt slots are its own. *)
  let check_idle slots ~thread what =
    match slots.(thread) with
    | Some _ -> invalid_arg (what ^ ": the thread is already inside one on this engine")
    | None -> ()

  let rec set_touching sh tid = function
    | [] -> ()
    | page :: rest ->
      Shadow.set_touching sh ~page ~tid;
      set_touching sh tid rest

  let atomically_body t ~thread f =
    let vlog = t.vlogs.(thread) in
    let outcome =
      Tm.run ?on_retry:t.retry_attempt.(thread) t.tm (fun tm_tx -> f (begin_rw t ~thread tm_tx))
    in
    match (outcome, t.attempts.(thread)) with
    | None, _ -> None
    | Some _, (None | Some (Snap _)) -> assert false
    | Some (value, raw_tid), Some (Rw r as dtx) ->
      t.attempts.(thread) <- None;
      (* The handle ends at the commit point: what follows may yield. *)
      r.live <- false;
      Stats.incr t.stats "txs";
      if raw_tid = 0 then begin
        assert (Vlog.current_tx_entries vlog = 0);
        unpin_all dtx;
        outcome
      end
      else begin
        let tid = t.tid_base + raw_tid in
        free_all t.allocator r.frees;
        (* The fragment seal rides in the redo log just before the end
           mark, so it is CRC-sealed with the fragment's writes and recovery
           sees (gtid, mask, tid) in the same durable record. *)
        (match r.cross_seal with
        | Some (gtid, mask) -> Vlog.append vlog (Log_entry.Cross { gtid; mask; tid })
        | None -> ());
        Vlog.append_end vlog ~tid;
        Sched.signal t.wake_persist.(thread mod Array.length t.wake_persist);
        (match t.view with Flat _ -> () | Paged sh -> set_touching sh tid r.wrote);
        unpin_all dtx;
        (match t.cfg.Config.mode with
        | Config.Sync ->
          ignore (Persist.flush_thread t thread ~wait_space:true);
          Trace.span_begin ~cat:"perform" "sync_wait";
          wait_durable t tid;
          Trace.span_end ~cat:"perform" "sync_wait"
        | Config.Async | Config.Inf -> ());
        (* The TM's result already carries the engine ID unless recovery
           moved the ID base. *)
        if tid = raw_tid then outcome else Some (value, tid)
      end

  (* The perform span is opened/closed with explicit begin/end on every exit
     (including re-raised exceptions like [Pmem_exhausted]) rather than the
     closure-based [Trace.span]: this path runs once per transaction and must
     allocate nothing when tracing is off. *)
  let atomically t ~thread f =
    if thread < 0 || thread >= t.cfg.Config.nthreads then
      invalid_arg "Dudetm.atomically: bad thread index";
    check_idle t.attempts ~thread "Dudetm.atomically";
    throttle_on_pressure t;
    pace_admission t ~thread;
    Trace.span_begin ~cat:"perform" "tx";
    match atomically_body t ~thread f with
    | r ->
      Trace.span_end ~cat:"perform" "tx";
      r
    | exception e ->
      Trace.span_end ~cat:"perform" "tx";
      raise e

  (* Read-only snapshot transactions (the DUMBO-style fast path).  No
     ring-pressure throttle, no admission pacing, no redo-log append, no
     write locks, no persist wait: the decoupled pipeline never hears of
     the transaction, and the returned epoch is the engine-space clock
     value the read-set is consistent at.  [durable] pins the snapshot at
     the installed watermark (shard effective IDs, replication quorum) or
     the local durable ID, so reads observe only crash-surviving state. *)
  let atomically_ro ?(durable = false) t ~thread f =
    if thread < 0 || thread >= t.cfg.Config.nthreads then
      invalid_arg "Dudetm.atomically_ro: bad thread index";
    check_idle t.snapshots ~thread "Dudetm.atomically_ro";
    let pin = if durable then t.ro_pin else None in
    Trace.span_begin ~cat:"perform" "ro_tx";
    match
      Tm.run_ro ?pin ?on_retry:t.retry_snapshot.(thread) t.tm (fun ro ->
          f (begin_snap t ~thread ro))
    with
    | outcome -> (
      S.discard tm_ops t.snapshots thread;
      Trace.span_end ~cat:"perform" "ro_tx";
      match outcome with
      | Some (value, raw_epoch) ->
        Stats.incr t.stats "ro_txs";
        if durable then Stats.incr t.stats "ro_durable_txs";
        if t.tid_base = 0 then outcome else Some (value, t.tid_base + raw_epoch)
      | None -> None)
    | exception e ->
      S.discard tm_ops t.snapshots thread;
      Trace.span_end ~cat:"perform" "ro_tx";
      raise e

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                       *)
  (* ------------------------------------------------------------------ *)

  let config t = t.cfg

  let freeze t ~reason = t.read_only <- Some reason

  let read_only t = t.read_only

  let nvm t = t.nvm

  let root_base _ = 0

  let heap_read_u64 t addr =
    match t.view with Flat mem -> Mem.get_u64 mem addr | Paged sh -> Shadow.load_u64 sh addr

  let stats t = t.stats

  let tm t = t.tm

  let shadow_stats t =
    match t.view with Flat _ -> None | Paged sh -> Some (Shadow.stats sh)

  let vlog_producer_blocks t =
    Array.fold_left (fun acc v -> acc + Vlog.producer_blocks v) 0 t.vlogs
end
