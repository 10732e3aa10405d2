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
module Combine = Dudetm_log.Combine
module Lz = Dudetm_log.Lz
module Tm_intf = Dudetm_tm.Tm_intf
module Trace = Dudetm_trace.Trace

exception Pmem_exhausted

exception Drain_stalled of string

exception Read_only of string

exception Read_only_violation = Tm_intf.Read_only_violation

exception Daemon_fault of string

type recovery_report = Rjournal.report = {
  durable : int;
  replayed_txs : int;
  discarded_txs : int;
  discarded_records : int;
  corrupted_records : int;
  quarantined_lines : int;
}

let pmalloc_cost = 120

(* One sealed log record as handed to the replication layer: the PR 6
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

(* Split a committed entry run into (tid, entries-including-end-mark)
   groups. *)
let split_txs entries =
  let rec go cur acc = function
    | [] ->
      assert (cur = []);
      List.rev acc
    | (Log_entry.Tx_end { tid } as e) :: rest -> go [] ((tid, List.rev (e :: cur)) :: acc) rest
    | e :: rest -> go (e :: cur) acc rest
  in
  go [] [] entries

(* The replay-item rule, shared by the live Persist path, engine recovery
   and the offline scrub: a per-thread record replays transaction by
   transaction; a combined record is one unit over its contiguous ID range,
   because its last-write-wins body cannot be split back into
   transactions. *)
let record_items cfg ~tids entries =
  match (cfg.Config.persist, tids) with
  | Config.Per_thread _, _ -> List.map (fun (tid, es) -> (tid, tid, es)) (split_txs entries)
  | Config.Combined _, [] -> []
  | Config.Combined _, first :: _ -> [ (first, List.fold_left max first tids, entries) ]

let scan_items cfg records ~ckpt_upto =
  let all_tids = Hashtbl.create 1024 in
  let items =
    List.concat_map
      (fun (record : Plog.record) ->
        let entries = Log_entry.decode_payload record.Plog.payload in
        let tids = Log_entry.tids entries in
        List.iter (fun tid -> Hashtbl.replace all_tids tid ()) tids;
        record_items cfg ~tids entries)
      records
  in
  (* Durable ID: largest contiguous extension of the checkpoint. *)
  let d = ref ckpt_upto in
  while Hashtbl.mem all_tids (!d + 1) do
    incr d
  done;
  (List.sort compare items, all_tids, !d)

(* Redo one replay item's entries onto the device: home stores (queued in
   [ranges] for the caller's persist ordering, their CRC extents marked in
   [extents]), allocator replay, and the cross-shard frontier raised to
   the highest sealed global ID.  Returns the new frontier.  Shared by
   Reproduce and recovery replay. *)
let redo_entries nvm alloc ~extents ~ranges ~frontier entries =
  List.fold_left
    (fun frontier e ->
      match e with
      | Log_entry.Write { addr; value } ->
        Nvm.store_u64 nvm addr value;
        ranges := (addr, 8) :: !ranges;
        Hashtbl.replace extents (addr / Config.crc_extent) ();
        Hashtbl.replace extents ((addr + 7) / Config.crc_extent) ();
        frontier
      | Log_entry.Alloc { off; len } ->
        Alloc.reserve alloc ~off ~len;
        frontier
      | Log_entry.Free { off; len } ->
        Alloc.free alloc ~off ~len;
        frontier
      | Log_entry.Cross { gtid; _ } -> max frontier gtid
      | Log_entry.Tx_end _ -> frontier)
    frontier entries

(* Supervisor backoff after the first daemon restart, doubling per
   consecutive failure up to the cap (simulated cycles). *)
let backoff_base = 200

let backoff_cap = 100_000

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
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

  type t = {
    cfg : Config.t;
    nvm : Nvm.t;
    view : view;
    tm : Tm.t;
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
    batch_open_at : int array;  (* per vlog: ts the open batch started; -1 *)
    mutable staged_open_at : int;  (* combined: ts oldest staged tx arrived; -1 *)
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
    (* Front-end context supplement, installed by layers above the engine
       (the serving front end): folded into the [Drain_stalled] diagnostic
       so an operator can tell "engine stalled" from "front end overloaded"
       (queue depth, shed counts, gate state).  Must be a pure read. *)
    mutable drain_context : (unit -> string) option;
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
    persist_on : Sched.cond list array;
    flush_on : Sched.cond list;
    seal_on : Sched.cond list;
    durable_on : Sched.cond list;
    mutable repro_on : Sched.cond list;  (* plus the replay gate's conds *)
  }

  (* A transaction body runs against either a full TM transaction or a
     read-only snapshot; the handle decides which fast path [read] takes
     and makes [write] on a snapshot a typed error. *)
  type txh = Rw of Tm.tx | Snap of Tm.ro

  type tx = {
    t : t;
    thread : int;
    tm_tx : txh;
    (* Pinned shadow pages and pages written (for touching IDs), each page
       once, newest first.  A transaction touches a handful of pages, so a
       [List.mem] scan dedupes them without a per-attempt hash table. *)
    mutable touched_list : int list;
    mutable wrote_list : int list;
    mutable allocs : (int * int) list;  (* this attempt's pmallocs *)
    mutable frees : (int * int) list;  (* deferred pfrees *)
    mutable cross_seal : (int * int) option;  (* (gtid, mask) to seal at commit *)
  }

  let applied t = !(t.applied_cell)

  let set_applied t v = t.applied_cell := v

  let store_of_view = function
    | Flat mem -> { Tm_intf.load = Mem.get_u64 mem; store = Mem.set_u64 mem }
    | Paged sh -> { Tm_intf.load = Shadow.load_u64 sh; store = Shadow.store_u64 sh }

  let make_view cfg nvm applied_cell =
    match cfg.Config.shadow_frames with
    | None ->
      let mem = Mem.create cfg.Config.heap_size in
      Nvm.load_into_mem nvm 0 mem ~dst_off:0 ~len:cfg.Config.heap_size;
      Flat mem
    | Some frames ->
      let scfg = Shadow.default_config cfg.Config.shadow_mode ~frames in
      Paged (Shadow.create scfg ~nvm ~applied_id:(fun () -> !applied_cell))

  let build cfg nvm ~tid_base ~plogs ~ckpt ~rjournal ~crcdir ~badlines ~allocator ~repro_alloc =
    let applied_cell = ref tid_base in
    let view = make_view cfg nvm applied_cell in
    let tm = Tm.create ~costs:Tm_intf.default_costs ~seed:cfg.Config.seed (store_of_view view) in
    (* The per-thread cutter's adaptive bound starts at its cap; combined
       persist cuts at [group] and never reads it. *)
    let bound =
      match cfg.Config.persist with
      | Config.Per_thread p -> p.max_entries
      | Config.Combined _ -> 0
    in
    let daemons =
      match cfg.Config.persist with Config.Per_thread p -> p.daemons | Config.Combined _ -> 1
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
      batch_open_at = Array.make cfg.Config.nthreads (-1);
      staged_open_at = -1;
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
      drain_context = None;
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
      persist_on = Array.map (fun c -> [ c; wake_stop ]) wake_persist;
      flush_on = [ wake_flush; wake_stop ];
      seal_on = [ wake_seal; wake_stop ];
      durable_on = [ wake_durable ];
      repro_on = [ wake_repro; wake_stop ];
    }

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
    build cfg nvm ~tid_base:0 ~plogs ~ckpt ~rjournal ~crcdir ~badlines ~allocator ~repro_alloc

  (* Carve every recorded bad line out of the {e serving} allocator so
     pmalloc never hands out media known to drop writes.  Only the serving
     side: [repro_alloc] must mirror exactly the logged Alloc/Free history
     (new allocations already avoid the lines, so no future log entry can
     overlap them).  A line inside an already-allocated block is skipped —
     reserve only claims free space. *)
  let shun_bad_lines t =
    let ls = Nvm.line_size t.nvm in
    List.iter
      (fun l ->
        let off = l * ls in
        if off + ls > Config.root_size && off < t.cfg.Config.heap_size then begin
          let off = max off Config.root_size in
          let len = min (t.cfg.Config.heap_size - off) ls in
          try Alloc.reserve t.allocator ~off ~len with Invalid_argument _ -> ()
        end)
      (Badline.lines t.badlines)

  (* ------------------------------------------------------------------ *)
  (* Daemon supervision and fault injection                              *)
  (* ------------------------------------------------------------------ *)

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

  (* Record a high-water mark: counters are monotone, so push the counter
     up to [v] when it is a new maximum. *)
  let stat_max stats key v =
    let cur = Stats.get stats key in
    if v > cur then Stats.add stats key (v - cur)

  (* ------------------------------------------------------------------ *)
  (* Durable-ID bookkeeping                                              *)
  (* ------------------------------------------------------------------ *)

  let note_flushed t tids =
    let before = t.durable in
    List.iter (fun tid -> Hashtbl.replace t.flushed_set tid ()) tids;
    while Hashtbl.mem t.flushed_set (t.durable + 1) do
      Hashtbl.remove t.flushed_set (t.durable + 1);
      t.durable <- t.durable + 1
    done;
    if t.durable > before then Sched.signal t.wake_durable

  let durable_id t = t.durable

  let applied_id = applied

  let last_tid t = t.tid_base + Tm.last_tid t.tm

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

  let cross_frontier t = t.cross_frontier

  let set_ro_watermark t wm = t.ro_watermark <- wm

  let set_drain_context t f = t.drain_context <- f

  (* Engine-space watermark durable-only snapshots pin at: the installed
     one (shard effective IDs, replication quorum) or the local durable
     ID.  Pure. *)
  let ro_watermark t =
    match t.ro_watermark with Some f -> f () | None -> t.durable

  let set_ship_hook t hook = t.ship_hook <- hook

  let wake_durable t = t.wake_durable

  (* Reproduce's wait list is built here, once: the gate comes with the
     conds of the state it reads.  Before [start] only, so a parked
     Reproduce never holds a stale list. *)
  let set_replay_gate t ~on gate =
    if t.started then invalid_arg "Dudetm.set_replay_gate: engine already started";
    t.replay_gate <- gate;
    t.repro_on <- t.wake_repro :: t.wake_stop :: on

  let ship t ~seq ~lo ~hi ~payload =
    match t.ship_hook with
    | None -> ()
    | Some f -> f { ship_seq = seq; ship_lo = lo; ship_hi = hi; ship_payload = payload }

  (* The region whose queue head is the next replay item, or -1 if its
     turn has not come.  Transaction IDs are unique across regions, so at
     most one queue matches.  Allocation-free: replay-gate predicates poll
     it on every scheduler pass. *)
  let next_region t =
    let target = applied t + 1 in
    let r = ref (-1) in
    for i = 0 to Array.length t.queues - 1 do
      let q = t.queues.(i) in
      if (not (Queue.is_empty q)) && (Queue.peek q).lo = target then r := i
    done;
    !r

  (* The next queued replay item, if its turn has come (pure: no pop). *)
  let peek_next_item t =
    match next_region t with -1 -> None | r -> Some (Queue.peek t.queues.(r))

  let item_hi it = it.hi

  (* Highest cross-shard global ID sealed into an item's entries (0 when
     the item carries no fragment).  Gating on the max is enough: fragment
     admissibility is monotone in the global ID. *)
  let item_cross_gtid it =
    List.fold_left
      (fun acc e -> match e with Log_entry.Cross { gtid; _ } -> max acc gtid | _ -> acc)
      0 it.entries

  (* May Reproduce apply the next transaction?  The replay gate is pure
     (it only reads sibling shards' durable counters or a quorum
     watermark), so it is safe inside [Sched.wait_until] conditions. *)
  let can_apply t =
    t.durable > applied t
    (* Under the Skip_batch_seal mutant the durable ID runs ahead of the
       flushed records, so the "durable implies queued" invariant that
       [pop_next_item] asserts does not hold; wait for the item instead of
       crashing the daemon — the campaign must catch the mutant as a
       durability violation at a power cut, not as an engine exception. *)
    && ((not (Inject.armed Skip_batch_seal)) || peek_next_item t <> None)
    && (match t.replay_gate with
       | Some gate -> (
         match peek_next_item t with Some it -> gate it | None -> true)
       | None -> true)

  (* ------------------------------------------------------------------ *)
  (* Persist step                                                        *)
  (* ------------------------------------------------------------------ *)

  (* ------------------------------------------------------------------ *)
  (* Bounded adaptive group commit                                       *)
  (*                                                                     *)
  (* Instead of draining the whole backlog into one record (whose NVM     *)
  (* transfer then occupies the channel for the entire backlog's bytes —  *)
  (* the 150x commit-latency tail), the Persist daemons cut records at a  *)
  (* bounded number of entries and flush a batch when it reaches the      *)
  (* bound OR when it has aged past [batch_deadline], whichever first.    *)
  (* The bound adapts to the recent arrival rate: an EWMA of the backlog  *)
  (* observed at each flush, clamped to [batch_min, batch_max], so light  *)
  (* load gets small low-latency batches and heavy load amortizes the     *)
  (* per-record overhead without ever exceeding the cap.                  *)
  (* ------------------------------------------------------------------ *)

  (* Fold one observed backlog into the adaptive bound. *)
  let note_batch_fill t ~min_entries ~max_entries pending =
    let alpha = 0.25 in
    t.batch_ewma <- ((1.0 -. alpha) *. t.batch_ewma) +. (alpha *. float_of_int pending);
    let b = int_of_float (ceil t.batch_ewma) in
    t.batch_bound <- max min_entries (min b max_entries);
    stat_max t.stats "batch_bound_hwm" t.batch_bound

  (* Fold one NVM record write into the measured drain rate (cycles per
     log entry, wall time at the channel including contention).  Admission
     pacing uses this to charge producers the real cost of the backlog
     they create. *)
  let note_drain_pace t ~entries ~cycles =
    if entries > 0 && cycles >= 0 then begin
      let per = float_of_int cycles /. float_of_int entries in
      t.drain_pace <-
        (if t.drain_pace <= 0.0 then per
         else (0.75 *. t.drain_pace) +. (0.25 *. per))
    end

  (* Append one sealed record to ring [region] and publish it: the NVM
     write, the drain-pace sample, the flush counters, the record's replay
     items, the durable-ID advance and the replication tap.  Serves the
     per-thread flush, the combined flusher and follower ingest.  A
     [shipped] record was already fenced and published by the primary's
     Persist step: no mutant guard applies to it, and it opens no
     [persist.flush] span of its own. *)
  let commit_record ?(shipped = false) t region payload entries =
    let plog = t.plogs.(region) in
    let append () =
      (* Seeded mutant (checker self-test only): skip the record's persist
         fence, so the durable ID published below covers a record still
         sitting in the cache — a crash loses transactions the application
         already acknowledged. *)
      Plog.append ~persist:(shipped || not (Inject.armed Early_durable_publish)) plog payload
    in
    let t_io = Sched.now () in
    t.flush_started_at <- t_io;
    let record = if shipped then append () else Trace.span ~cat:"persist" "flush" append in
    t.flush_started_at <- -1;
    note_drain_pace t ~entries:(List.length entries) ~cycles:(Sched.now () - t_io);
    Stats.incr t.stats "flush_records";
    Stats.add t.stats "flush_payload_bytes" (Bytes.length payload);
    stat_max t.stats "plog_hwm_bytes" (Plog.used_space plog);
    let tids = Log_entry.tids entries in
    let items = record_items t.cfg ~tids entries in
    let n = List.length items in
    List.iteri
      (fun idx (lo, hi, entries) ->
        Queue.push
          {
            lo;
            hi;
            entries;
            region;
            end_off = record.Plog.end_off;
            rec_next_seq = record.Plog.seq + 1;
            last_of_record = idx = n - 1;
          }
          t.queues.(region))
      items;
    (* Under the Skip_batch_seal mutant the combiner already published
       these IDs at seal time. *)
    if shipped || not (Inject.armed Skip_batch_seal) then note_flushed t tids;
    Sched.signal t.wake_repro;
    match tids with
    | [] -> ()
    | first :: _ ->
      let lo = List.fold_left min first tids in
      let hi = List.fold_left max first tids in
      ship t ~seq:record.Plog.seq ~lo ~hi ~payload

  (* Flush the longest prefix of whole transactions from thread [i]'s
     volatile log that fits the adaptive entry bound and the persistent
     ring's free space.  Returns true if a record was written. *)
  let flush_thread t i ~wait_space =
    let vlog = t.vlogs.(i) in
    let plog = t.plogs.(i) in
    let hd = Vlog.head vlog in
    let cm = Vlog.committed vlog in
    if cm <= hd then false
    else begin
      stat_max t.stats "vlog_hwm_entries" (cm - hd);
      let budget () = Plog.free_space plog - Plog.record_overhead - 1 in
      (* Find the cut: last tx boundary within the entry cap and byte
         budget, but always at least one whole transaction. *)
      let cap = t.batch_bound in
      let find_cut bytes_avail =
        let pos = ref hd and cut = ref hd and size = ref 0 and n = ref 0 in
        let first_tx_done = ref false in
        (try
           while !pos < cm do
             let e = Vlog.get vlog !pos in
             let sz = Log_entry.encoded_size e in
             if !first_tx_done && (!n >= cap || !size + sz > bytes_avail) then
               raise Exit;
             size := !size + sz;
             incr n;
             incr pos;
             (match e with
             | Log_entry.Tx_end _ ->
               if !size <= bytes_avail then begin
                 cut := !pos;
                 first_tx_done := true
               end
             | Log_entry.Write _ | Log_entry.Alloc _ | Log_entry.Free _
             | Log_entry.Cross _ -> ())
           done
         with Exit -> ());
        !cut
      in
      let first_tx_bytes () =
        let pos = ref hd and size = ref 0 in
        let continue = ref true in
        while !continue && !pos < cm do
          let e = Vlog.get vlog !pos in
          size := !size + Log_entry.encoded_size e;
          (match e with Log_entry.Tx_end _ -> continue := false | _ -> ());
          incr pos
        done;
        !size
      in
      let need1 = first_tx_bytes () in
      if need1 + Plog.record_overhead + 1 > Plog.data_capacity plog then
        invalid_arg "Dudetm: a single transaction exceeds the persistent log ring";
      if budget () < need1 then
        if wait_space then
          Sched.wait_until ~label:"plog space" (fun () -> budget () >= need1 || t.stop_flag)
        else ();
      if budget () < need1 then false
      else
        (* The Fun.protect-based [Trace.span] keeps the trace balanced even
           when the scheduler kills this daemon mid-flush.  [persist.batch]
           covers the whole unit (cut, CPU work, NVM write, bookkeeping);
           the inner [persist.flush] isolates the NVM record write. *)
        Trace.span ~cat:"persist" "batch" (fun () ->
            let cut = find_cut (budget ()) in
            assert (cut > hd);
            let entries = List.init (cut - hd) (fun k -> Vlog.get vlog (hd + k)) in
            stat_max t.stats "batch_hwm_entries" (List.length entries);
            Sched.advance (t.cfg.Config.flush_cost_per_entry * List.length entries);
            commit_record t i (Log_entry.encode_payload entries) entries;
            Vlog.consume_to vlog cut;
            true)
    end

  let persist_plain_loop t p ~daemons ~min_entries ~max_entries =
    let mine =
      List.filter (fun i -> i mod daemons = p) (List.init t.cfg.Config.nthreads (fun i -> i))
    in
    let pending i = Vlog.committed t.vlogs.(i) - Vlog.head t.vlogs.(i) in
    let has_data i = pending i > 0 in
    let deadline = t.cfg.Config.batch_deadline in
    (* Deadline aging polls by advancing simulated time: a time-based
       [wait_until] predicate would deadlock the scheduler once every
       other thread blocks (nothing else advances the clock). *)
    let poll_step = max 1 (deadline / 4) in
    let rec loop () =
      maybe_fault t "persist";
      let now = Sched.now () in
      List.iter
        (fun i ->
          if has_data i then begin
            if t.batch_open_at.(i) < 0 then t.batch_open_at.(i) <- now
          end
          else t.batch_open_at.(i) <- -1)
        mine;
      (* Flush an undersized batch immediately when somebody is blocked on
         durability or the run is winding down; otherwise hold it for the
         size bound or the deadline. *)
      let urgent = t.durable_waiters > 0 || t.draining || t.stop_flag in
      let ripe i =
        has_data i
        && (pending i >= t.batch_bound || urgent
           || (t.batch_open_at.(i) >= 0 && now - t.batch_open_at.(i) >= deadline))
      in
      (* Fullest vlog first: the producer closest to blocking on a full
         ring is served before lightly loaded ones, which is what converts
         the old drain-everything latency spike into a bounded wait.  A
         ripe vlog whose persistent ring is full (recycle pending) must
         not stall the others: fall through to the next-fullest ripe vlog
         and only wait when none can make progress. *)
      let ripe_by_fill =
        List.sort
          (fun a b -> compare (pending b) (pending a))
          (List.filter ripe mine)
      in
      let flushed =
        List.fold_left
          (fun done_ i ->
            match done_ with
            | Some _ -> done_
            | None ->
              let n = pending i in
              if flush_thread t i ~wait_space:false then begin
                Stats.incr t.stats
                  (if n >= t.batch_bound then "batch_size_flushes"
                   else if urgent then "batch_drain_flushes"
                   else "batch_deadline_flushes");
                note_batch_fill t ~min_entries ~max_entries n;
                Some i
              end
              else None)
          None ripe_by_fill
      in
      match flushed with
      | Some i ->
        t.batch_open_at.(i) <- (if has_data i then Sched.now () else -1);
        Sched.yield ();
        loop ()
      | None when ripe_by_fill <> [] ->
        (* Every ripe vlog's ring is full: poll by advancing so Reproduce
           gets simulated time to checkpoint and recycle (a predicate wait
           here could spin without advancing the clock). *)
        Sched.advance poll_step;
        loop ()
      | None ->
        if t.stop_flag && not (List.exists has_data mine) then ()
        else if List.exists has_data mine then begin
          (* An open batch below the bound: age it toward the deadline. *)
          Sched.advance poll_step;
          loop ()
        end
        else begin
          Sched.wait_until ~on:t.persist_on.(p) ~label:"persist: waiting for logs" (fun () ->
              t.stop_flag || List.exists has_data mine);
          Sched.yield ();
          loop ()
        end
    in
    loop ()

  (* Combined mode is a two-stage pipeline over two daemons:

       combiner ("persist-0")      merges all volatile logs into batches of
                                   up to [group] transactions in
                                   global ID order, combines (and
                                   optionally compresses) each batch and
                                   seals it onto [t.prepared];
       flusher  ("persist-flush")  pops sealed batches and writes each as
                                   one record to ring 0, publishing the
                                   durable IDs when the persist completes.

     The combiner's CPU work on batch [k+1] (merge, last-write-wins
     combine, CRC/encode, compression) genuinely overlaps batch [k]'s NVM
     channel occupancy because the two stages run on different simulated
     threads.  [t.prepared] is bounded: a deep pipeline would only grow
     the window of sealed-but-unflushed (hence volatile) acknowledged-by
     -nobody work without adding overlap. *)
  let max_prepared = 2

  let persist_combined_loop t ~group ~compress =
    let staging = t.staging in
    let builder = Combine.builder () in
    let drain_vlogs () =
      Array.iter
        (fun vlog ->
          let hd = Vlog.head vlog and cm = Vlog.committed vlog in
          if cm > hd then begin
            let entries = List.init (cm - hd) (fun k -> Vlog.get vlog (hd + k)) in
            List.iter
              (fun (tid, es) ->
                (* strip the end mark; re-added when the group is built *)
                let body = List.filter (function Log_entry.Tx_end _ -> false | _ -> true) es in
                Hashtbl.replace staging tid body)
              (split_txs entries);
            Vlog.consume_to vlog cm
          end)
        t.vlogs
    in
    let contiguous () =
      let n = ref 0 in
      while Hashtbl.mem staging (t.next_flush + !n) do
        incr n
      done;
      !n
    in
    let seal_batch take =
      Trace.span ~cat:"persist" "batch" (fun () ->
          let lo = t.next_flush in
          let hi = lo + take - 1 in
          let overlapping = t.flush_started_at >= 0 in
          let combined, cstats =
            Trace.span ~cat:"persist" "combine" (fun () ->
                List.iter
                  (fun tid ->
                    Combine.feed_list builder (Hashtbl.find staging tid);
                    Combine.feed builder (Log_entry.Tx_end { tid }))
                  (List.init take (fun k -> lo + k));
                let r = Combine.seal builder in
                Sched.advance
                  (t.cfg.Config.flush_cost_per_entry * (snd r).Combine.entries_in);
                r)
          in
          Stats.add t.stats "combine_writes_in" cstats.Combine.writes_in;
          Stats.add t.stats "combine_writes_out" cstats.Combine.writes_out;
          stat_max t.stats "batch_hwm_entries" cstats.Combine.entries_in;
          let payload =
            if compress then
              Trace.span ~cat:"persist" "compress" (fun () ->
                  let body = Log_entry.encode_list combined in
                  Sched.advance
                    (int_of_float
                       (float_of_int (Bytes.length body)
                       *. t.cfg.Config.compress_cost_per_byte));
                  let comp = Lz.compress body in
                  Stats.add t.stats "compress_in_bytes" (Bytes.length body);
                  Stats.add t.stats "compress_out_bytes" (Bytes.length comp);
                  Log_entry.encode_payload ~compress:true combined)
            else Log_entry.encode_payload combined
          in
          let need = Plog.record_overhead + Bytes.length payload in
          if need > Plog.data_capacity t.plogs.(0) then
            invalid_arg "Dudetm: combined group exceeds the persistent log ring";
          (* This seal ran while the flusher held the channel: the cycles
             spent combining were hidden behind batch [k]'s transfer. *)
          if overlapping && t.flush_started_at >= 0 then begin
            let hidden = Sched.now () - t.flush_started_at in
            if hidden > 0 then begin
              Stats.add t.stats "pipe_overlap_cycles" hidden;
              Trace.instant ~cat:"persist" "pipe_overlap" hidden
            end
          end;
          Queue.push { pb_entries = combined; pb_payload = payload } t.prepared;
          Sched.signal t.wake_flush;
          List.iter (fun k -> Hashtbl.remove staging (lo + k)) (List.init take (fun k -> k));
          (* Seeded mutant (checker self-test only): acknowledge the batch
             at seal time — its record has not reached NVM, so a crash in
             the pipeline window loses acknowledged transactions. *)
          if Inject.armed Skip_batch_seal then
            note_flushed t (List.init take (fun k -> lo + k));
          t.next_flush <- hi + 1;
          t.staged_open_at <- -1)
    in
    let deadline = t.cfg.Config.batch_deadline in
    let poll_step = max 1 (deadline / 4) in
    let rec loop () =
      maybe_fault t "persist";
      drain_vlogs ();
      let avail = contiguous () in
      let now = Sched.now () in
      if avail > 0 then begin
        if t.staged_open_at < 0 then t.staged_open_at <- now
      end
      else t.staged_open_at <- -1;
      let deadline_hit =
        avail > 0 && t.staged_open_at >= 0 && now - t.staged_open_at >= deadline
      in
      let waiter_hit = avail > 0 && t.durable_waiters > 0 in
      let tail_hit =
        (t.draining || t.stop_flag) && avail > 0 && last_tid t < t.next_flush + avail
      in
      if Queue.length t.prepared >= max_prepared then begin
        Sched.wait_until ~on:t.seal_on ~label:"persist: pipeline full" (fun () ->
            Queue.length t.prepared < max_prepared || t.stop_flag);
        Sched.yield ();
        loop ()
      end
      else if avail >= group then begin
        Stats.incr t.stats "batch_size_flushes";
        seal_batch group;
        loop ()
      end
      else if deadline_hit || waiter_hit || tail_hit then begin
        (* Short batch: the deadline expired, a caller is blocked on
           durability, or this is the tail of the run. *)
        Stats.incr t.stats
          (if tail_hit && not (deadline_hit || waiter_hit) then "batch_drain_flushes"
           else "batch_deadline_flushes");
        seal_batch avail;
        loop ()
      end
      else if t.stop_flag && avail = 0 && Hashtbl.length staging = 0 then begin
        t.combiner_done <- true;
        Sched.signal t.wake_flush
      end
      else if avail > 0 then begin
        (* An open batch below the group size: age it toward the deadline
           by advancing simulated time (a time-based wait_until predicate
           would deadlock the scheduler). *)
        Sched.advance poll_step;
        loop ()
      end
      else begin
        Sched.wait_until ~on:t.persist_on.(0) ~label:"persist: waiting for group" (fun () ->
            t.stop_flag || t.draining
            || Array.exists (fun v -> Vlog.committed v > Vlog.head v) t.vlogs);
        Sched.yield ();
        loop ()
      end
    in
    loop ()

  (* Pipeline stage 2: write sealed batches to NVM and publish durability
     per batch.  All in-flight state is the popped batch itself; popping
     happens after the fault point, so a supervised restart never loses or
     duplicates a record. *)
  let persist_flush_loop t =
    let rec loop () =
      maybe_fault t "persist-flush";
      if not (Queue.is_empty t.prepared) then begin
        let pb = Queue.pop t.prepared in
        Sched.signal t.wake_seal;
        let need = Plog.record_overhead + Bytes.length pb.pb_payload in
        Sched.wait_until ~label:"plog space (combined)" (fun () ->
            Plog.free_space t.plogs.(0) >= need);
        commit_record t 0 pb.pb_payload pb.pb_entries;
        loop ()
      end
      else if t.stop_flag && t.combiner_done then ()
      else begin
        Sched.wait_until ~on:t.flush_on ~label:"flush: waiting for sealed batch" (fun () ->
            (not (Queue.is_empty t.prepared)) || (t.stop_flag && t.combiner_done));
        Sched.yield ();
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Reproduce step                                                      *)
  (* ------------------------------------------------------------------ *)

  let plog_pressure t =
    Array.exists (fun p -> Plog.free_space p < Plog.data_capacity p / 4) t.plogs

  (* Persist every reproduced-but-unpersisted heap range and advance the
     persisted-data watermark.  The ranges live in [t] so a daemon restart
     between applying items and persisting them cannot drop the fence: the
     restarted daemon (or the checkpoint below) still flushes them before
     any checkpoint covers the applied IDs.  The Unfenced_reproduce mutant
     (checker self-test only) skips the fence. *)
  let flush_reproduced t =
    if !(t.repro_ranges) <> [] then begin
      if not (Inject.armed Unfenced_reproduce) then
        Nvm.persist_ranges t.nvm !(t.repro_ranges);
      t.repro_ranges := []
    end;
    t.persisted_data <- applied t

  let do_checkpoint t =
    Trace.span ~cat:"reproduce" "checkpoint" @@ fun () ->
    (* A daemon restart may have left applied items whose data persist is
       still pending; fence them before the checkpoint can cover them. *)
    flush_reproduced t;
    (* Refresh the CRC directory for every heap extent this checkpoint
       covers.  Reproduce has already persisted those extents (the round's
       persist_ranges precedes the checkpoint), so latest = persisted there
       and the recomputed CRCs seal exactly the checkpointed content. *)
    let extents = Hashtbl.fold (fun e () acc -> e :: acc) t.dirty_extents [] in
    Hashtbl.reset t.dirty_extents;
    Crcdir.update t.crcdir extents;
    Checkpoint.write t.ckpt
      {
        Checkpoint.reproduced_upto = t.persisted_data;
        cross_frontier = t.cross_frontier;
        free_extents = Alloc.extents t.repro_alloc;
      };
    (* Recycle each ring up to its furthest completed record. *)
    let per_region = Hashtbl.create 8 in
    List.iter
      (fun (region, end_off, seq) ->
        match Hashtbl.find_opt per_region region with
        | Some (e, _) when e >= end_off -> ()
        | _ -> Hashtbl.replace per_region region (end_off, seq))
      t.pending_recycle;
    Hashtbl.iter
      (fun region (end_off, next_seq) ->
        Plog.recycle_to t.plogs.(region) ~end_off ~next_seq)
      per_region;
    t.pending_recycle <- [];
    t.checkpointed <- t.persisted_data

  let pop_next_item t =
    match next_region t with
    | -1 ->
      invalid_arg
        (Printf.sprintf "Dudetm reproduce: transaction %d durable but not queued"
           (applied t + 1))
    | r -> Queue.pop t.queues.(r)

  (* Apply one item's stores and allocator replay atomically, then publish
     the applied watermark.  Persisting is the caller's job: a reproduce
     round applies a whole batch of items under a single persist ordering,
     which is what keeps one background thread ahead of many Perform
     threads. *)
  let apply_item t it ranges =
    let n = List.length it.entries in
    Sched.advance (t.cfg.Config.reproduce_cost_per_entry * n);
    t.cross_frontier <-
      redo_entries t.nvm t.repro_alloc ~extents:t.dirty_extents ~ranges
        ~frontier:t.cross_frontier it.entries;
    set_applied t it.hi;
    if it.last_of_record then
      t.pending_recycle <- (it.region, it.end_off, it.rec_next_seq) :: t.pending_recycle

  let reproduce_round t =
    Trace.span ~cat:"reproduce" "replay" @@ fun () ->
    let applied_any = ref false in
    let batch = ref 0 in
    while can_apply t && !batch < t.cfg.Config.reproduce_batch do
      maybe_fault t "reproduce";
      apply_item t (pop_next_item t) t.repro_ranges;
      applied_any := true;
      incr batch
    done;
    (* One persist ordering covers the whole round's reproduced data. *)
    if !applied_any then flush_reproduced t;
    !applied_any

  let reproduce_loop t =
    let rec loop () =
      maybe_fault t "reproduce";
      if can_apply t then begin
        ignore (reproduce_round t);
        if
          List.length t.pending_recycle >= t.cfg.Config.checkpoint_records
          || (t.pending_recycle <> [] && plog_pressure t)
        then do_checkpoint t;
        loop ()
      end
      else if t.stop_flag && not (can_apply t) then begin
        (* Quiesced — or stopped while a cross-shard fragment is still
           gated on a sibling shard; either way checkpoint what is applied
           and exit (the gated suffix replays at the next attach). *)
        if t.pending_recycle <> [] || t.checkpointed < t.persisted_data then do_checkpoint t
      end
      else begin
        Sched.wait_until ~on:t.repro_on ~label:"reproduce: waiting for durable" (fun () ->
            t.stop_flag
            || can_apply t
            || (t.pending_recycle <> [] && plog_pressure t));
        if (not (can_apply t)) && t.pending_recycle <> [] && plog_pressure t then
          do_checkpoint t;
        Sched.yield ();
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Lifecycle                                                           *)
  (* ------------------------------------------------------------------ *)

  let start t =
    if t.started then invalid_arg "Dudetm.start: already started";
    t.started <- true;
    (match t.cfg.Config.mode with
    | Config.Sync -> ()
    | Config.Async | Config.Inf ->
      match t.cfg.Config.persist with
      | Config.Combined { group; compress } ->
        ignore
          (Sched.spawn ~daemon:true "persist-0" (fun () ->
               supervise t (fun () -> persist_combined_loop t ~group ~compress)));
        ignore
          (Sched.spawn ~daemon:true "persist-flush" (fun () ->
               supervise t (fun () -> persist_flush_loop t)))
      | Config.Per_thread { daemons; min_entries; max_entries } ->
        for p = 0 to daemons - 1 do
          ignore
            (Sched.spawn ~daemon:true
               (Printf.sprintf "persist-%d" p)
               (fun () ->
                 supervise t (fun () ->
                     persist_plain_loop t p ~daemons ~min_entries ~max_entries)))
        done);
    ignore
      (Sched.spawn ~daemon:true "reproduce" (fun () ->
           supervise t (fun () -> reproduce_loop t)))

  let drain_diagnostic t =
    let vlog_backlog =
      Array.fold_left (fun acc v -> acc + (Vlog.committed v - Vlog.head v)) 0 t.vlogs
    in
    let rings =
      String.concat ","
        (Array.to_list
           (Array.map
              (fun p -> Printf.sprintf "%d/%d" (Plog.used_space p) (Plog.data_capacity p))
              t.plogs))
    in
    Printf.sprintf
      "drain stalled after %d cycles: last_tid=%d durable=%d applied=%d checkpointed=%d \
       vlog_backlog=%d ring_occupancy=[%s] pending_recycle=%d queued_items=%d stop=%b \
       daemon_restarts=%d daemon_backoff_cycles=%d bp_throttle_events=%d \
       bp_throttle_cycles=%d pmalloc_waits=%d read_only=%s"
      t.cfg.Config.drain_budget (last_tid t) t.durable (applied t) t.checkpointed vlog_backlog
      rings
      (List.length t.pending_recycle)
      (Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues)
      t.stop_flag
      (Stats.get t.stats "daemon_restarts")
      (Stats.get t.stats "daemon_backoff_cycles")
      (Stats.get t.stats "bp_throttle_events")
      (Stats.get t.stats "bp_throttle_cycles")
      (Stats.get t.stats "pmalloc_waits")
      (match t.read_only with None -> "no" | Some r -> Printf.sprintf "%S" r)
    ^ (match t.drain_context with None -> "" | Some f -> " " ^ f ())

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

  (* ------------------------------------------------------------------ *)
  (* Follower mode (replicated durability, lib/replica)                  *)
  (* ------------------------------------------------------------------ *)

  (* A follower runs no Perform and no Persist: the primary's Persist
     daemon already produced the sealed record, so ingesting one is just
     the flusher's tail — append the exact shipped payload to ring 0,
     queue the replay item and advance the local durable watermark.  The
     follower's ring therefore holds byte-identical records at the same
     sequence numbers as the primary's ring 0, which is what makes
     promotion plain [attach] recovery. *)
  let ingest_record t payload =
    let entries = Log_entry.decode_payload payload in
    let tids = Log_entry.tids entries in
    match tids with
    | [] -> true
    | first :: _ ->
      let lo = List.fold_left min first tids in
      let hi = List.fold_left max first tids in
      if lo <> t.durable + 1 then
        invalid_arg
          (Printf.sprintf
             "Dudetm.ingest_record: batch [%d,%d] breaks the contiguous durable prefix at %d"
             lo hi t.durable);
      if Plog.free_space t.plogs.(0) < Plog.record_overhead + Bytes.length payload + 1 then
        (* Ring full (replay gated or Reproduce behind): the caller keeps
           the frame buffered and retries once recycling frees space. *)
        false
      else begin
        commit_record ~shipped:true t 0 payload entries;
        true
      end

  let start_follower t =
    if t.started then invalid_arg "Dudetm.start_follower: already started";
    t.started <- true;
    ignore
      (Sched.spawn ~daemon:true "reproduce" (fun () ->
           supervise t (fun () -> reproduce_loop t)))

  (* No [drain]: a follower's [last_tid] never moves (no Perform), and its
     replay gate may legitimately hold back a suffix forever — just tell
     the Reproduce daemon to checkpoint what is applied and exit. *)
  let stop_follower t =
    t.draining <- true;
    t.stop_flag <- true;
    Sched.signal t.wake_stop

  (* ------------------------------------------------------------------ *)
  (* Perform step: the transaction API                                   *)
  (* ------------------------------------------------------------------ *)

  let page_addr sh page = page lsl (Shadow.config sh).Shadow.page_bits

  let unpin_all dtx =
    (match dtx.t.view with
    | Flat _ -> ()
    | Paged sh -> List.iter (fun page -> Shadow.unpin sh (page_addr sh page)) dtx.touched_list);
    dtx.touched_list <- [];
    dtx.wrote_list <- []

  let touch dtx addr ~wrote =
    match dtx.t.view with
    | Flat _ -> ()
    | Paged sh ->
      let page = Shadow.page_of sh addr in
      (* Record the page only once it is pinned: a fault that raises
         (a poisoned line) must leave nothing for [unpin_all] to undo. *)
      if not (List.mem page dtx.touched_list) then begin
        Shadow.pin sh addr;
        dtx.touched_list <- page :: dtx.touched_list
      end;
      if wrote && not (List.mem page dtx.wrote_list) then
        dtx.wrote_list <- page :: dtx.wrote_list

  let read dtx addr =
    touch dtx addr ~wrote:false;
    match dtx.tm_tx with
    | Rw tm_tx -> Tm.read tm_tx addr
    | Snap ro -> Tm.ro_read ro addr

  let require_writable t =
    match t.read_only with
    | Some reason -> raise (Read_only reason)
    | None -> ()

  (* The write-side TM handle; a snapshot transaction attempting any
     mutation gets the typed violation (there is nothing to roll back —
     snapshots own no locks and logged nothing). *)
  let require_rw dtx =
    match dtx.tm_tx with
    | Rw tm_tx -> tm_tx
    | Snap _ -> raise Read_only_violation

  let write dtx addr value =
    let tm_tx = require_rw dtx in
    require_writable dtx.t;
    touch dtx addr ~wrote:true;
    Trace.sample ~cat:"perform" "log_append" dtx.t.cfg.Config.log_append_cost;
    Sched.advance dtx.t.cfg.Config.log_append_cost;
    Vlog.append dtx.t.vlogs.(dtx.thread) (Log_entry.Write { addr; value });
    Stats.incr dtx.t.stats "log_entries";
    Tm.write tm_tx addr value

  let abort dtx =
    match dtx.tm_tx with
    | Rw tm_tx -> Tm.user_abort tm_tx
    | Snap ro -> Tm.ro_abort ro

  (* Request a cross-shard fragment seal: if this transaction commits with
     writes, a [Cross { gtid; mask; tid }] entry is logged just before its
     end mark.  Called by the sharding layer once the body has finished and
     the set of shards actually written is known. *)
  let seal_cross dtx ~gtid ~mask = dtx.cross_seal <- Some (gtid, mask)

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
    ignore (require_rw dtx);
    require_writable dtx.t;
    Sched.advance pmalloc_cost;
    match alloc_with_backpressure dtx.t n with
    | None -> raise Pmem_exhausted
    | Some off ->
      dtx.allocs <- (off, n) :: dtx.allocs;
      Vlog.append dtx.t.vlogs.(dtx.thread) (Log_entry.Alloc { off; len = n });
      (* Zero the first word transactionally: initializes the block and
         guarantees the transaction is a write transaction, so the Alloc
         entry is always sealed under a real transaction ID. *)
      write dtx off 0L;
      off

  let pfree dtx ~off ~len =
    if len <= 0 then invalid_arg "Dudetm.pfree: non-positive size";
    ignore (require_rw dtx);
    require_writable dtx.t;
    write dtx off 0L;
    Vlog.append dtx.t.vlogs.(dtx.thread) (Log_entry.Free { off; len });
    dtx.frees <- (off, len) :: dtx.frees

  (* Backpressure: true when some ring is occupied beyond the configured
     high-water fraction. *)
  let ring_pressure t =
    let hwm = t.cfg.Config.bp_hwm_fraction in
    Array.exists
      (fun p -> float_of_int (Plog.used_space p) >= hwm *. float_of_int (Plog.data_capacity p))
      t.plogs

  (* Throttle a Perform thread about to start a transaction while a ring
     sits above its high-water mark: a bounded wait gives Persist/Reproduce
     a chance to recycle instead of letting producers run the rings into
     the hard full-waiting path.  Bounded so a stuck pipeline degrades to
     the existing full-ring behavior rather than blocking forever. *)
  let throttle_on_pressure t =
    if
      t.started && (not t.draining) && (not t.stop_flag)
      && t.cfg.Config.bp_wait_budget > 0
      && t.cfg.Config.mode <> Config.Sync
      && Sched.running () && ring_pressure t
    then begin
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
    if
      t.started && (not t.draining) && (not t.stop_flag)
      && t.cfg.Config.bp_wait_budget > 0
      && t.cfg.Config.mode <> Config.Sync
      && t.drain_pace > 0.0 && Sched.running ()
    then begin
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
            int_of_float (float_of_int over *. t.drain_pace /. float_of_int n)
          in
          if delay > 0 then begin
            Stats.incr t.stats "pace_events";
            Stats.add t.stats "pace_cycles" delay;
            Sched.advance delay
          end
        end
      end
    end

  let atomically_body t ~thread f =
    let vlog = t.vlogs.(thread) in
    let attempt : tx option ref = ref None in
    let cleanup () =
      (match !attempt with
      | Some dtx ->
        Vlog.pop_current_tx vlog;
        List.iter (fun (off, len) -> Alloc.free t.allocator ~off ~len) dtx.allocs;
        unpin_all dtx
      | None -> ());
      attempt := None
    in
    let outcome =
      Tm.run ~on_retry:cleanup t.tm (fun tm_tx ->
          let dtx =
            {
              t;
              thread;
              tm_tx = Rw tm_tx;
              touched_list = [];
              wrote_list = [];
              allocs = [];
              frees = [];
              cross_seal = None;
            }
          in
          attempt := Some dtx;
          f dtx)
    in
    match outcome with
    | None -> None
    | Some (value, raw_tid) ->
      let dtx = match !attempt with Some d -> d | None -> assert false in
      attempt := None;
      Stats.incr t.stats "txs";
      if raw_tid = 0 then begin
        assert (Vlog.current_tx_entries vlog = 0);
        unpin_all dtx;
        Some (value, 0)
      end
      else begin
        let tid = t.tid_base + raw_tid in
        List.iter (fun (off, len) -> Alloc.free t.allocator ~off ~len) dtx.frees;
        (* The fragment seal rides in the redo log just before the end
           mark, so it is CRC-sealed with the fragment's writes and recovery
           sees (gtid, mask, tid) in the same durable record. *)
        (match dtx.cross_seal with
        | Some (gtid, mask) -> Vlog.append vlog (Log_entry.Cross { gtid; mask; tid })
        | None -> ());
        Vlog.append_end vlog ~tid;
        Sched.signal t.wake_persist.(thread mod Array.length t.wake_persist);
        (match t.view with
        | Flat _ -> ()
        | Paged sh ->
          List.iter (fun page -> Shadow.set_touching sh ~page ~tid) dtx.wrote_list);
        unpin_all dtx;
        (match t.cfg.Config.mode with
        | Config.Sync ->
          ignore (flush_thread t thread ~wait_space:true);
          Trace.span_begin ~cat:"perform" "sync_wait";
          wait_durable t tid;
          Trace.span_end ~cat:"perform" "sync_wait"
        | Config.Async | Config.Inf -> ());
        Some (value, tid)
      end

  (* The perform span is opened/closed with explicit begin/end on every exit
     (including re-raised exceptions like [Pmem_exhausted]) rather than the
     closure-based [Trace.span]: this path runs once per transaction and must
     allocate nothing when tracing is off. *)
  let atomically t ~thread f =
    if thread < 0 || thread >= t.cfg.Config.nthreads then
      invalid_arg "Dudetm.atomically: bad thread index";
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
     {!ro_watermark} so reads observe only crash-surviving state. *)
  let atomically_ro ?(durable = false) t ~thread f =
    if thread < 0 || thread >= t.cfg.Config.nthreads then
      invalid_arg "Dudetm.atomically_ro: bad thread index";
    let pin =
      if durable then Some (fun () -> ro_watermark t - t.tid_base) else None
    in
    Trace.span_begin ~cat:"perform" "ro_tx";
    let attempt : tx option ref = ref None in
    let cleanup () =
      (match !attempt with Some dtx -> unpin_all dtx | None -> ());
      attempt := None
    in
    match
      Tm.run_ro ?pin ~on_retry:cleanup t.tm (fun ro ->
          let dtx =
            {
              t;
              thread;
              tm_tx = Snap ro;
              touched_list = [];
              wrote_list = [];
              allocs = [];
              frees = [];
              cross_seal = None;
            }
          in
          attempt := Some dtx;
          f dtx)
    with
    | Some (value, raw_epoch) ->
      cleanup ();
      Stats.incr t.stats "ro_txs";
      if durable then Stats.incr t.stats "ro_durable_txs";
      Trace.span_end ~cat:"perform" "ro_tx";
      Some (value, t.tid_base + raw_epoch)
    | None ->
      cleanup ();
      Trace.span_end ~cat:"perform" "ro_tx";
      None
    | exception e ->
      cleanup ();
      Trace.span_end ~cat:"perform" "ro_tx";
      raise e

  (* ------------------------------------------------------------------ *)
  (* Recovery                                                            *)
  (* ------------------------------------------------------------------ *)

  (* Recovery state between the non-destructive scan ([attach_prepare]) and
     the destructive replay ([attach_commit]).  The sharding layer prepares
     every region first, runs the cross-shard vote over the scanned
     fragments and checkpointed frontiers, and only then commits each
     region with its voted durable cut. *)
  type prepared = {
    p_cfg : Config.t;
    p_nvm : Nvm.t;
    p_rjournal : Rjournal.t;
    p_use_journal : bool;
    p_ckpt : Checkpoint.t;
    p_ckpt_upto : int;  (* checkpointed reproduced_upto *)
    p_frontier : int;  (* checkpointed cross-shard frontier *)
    p_repro_alloc : Alloc.t;
    p_plogs : Plog.t array;
    p_corrupted : int;
    p_quarantined : int;
    p_items : (int * int * Log_entry.t list) list;  (* (lo, hi, entries), sorted *)
    p_all_tids : (int, unit) Hashtbl.t;
    p_durable : int;  (* candidate durable ID, before any cross-shard vote *)
    p_fragments : (int * int * int) list;  (* scanned (gtid, mask, tid) seals *)
  }

  let prepared_durable p = p.p_durable

  let prepared_frontier p = p.p_frontier

  let prepared_fragments p = p.p_fragments

  let prepared_checkpoint_upto p = p.p_ckpt_upto

  let attach_prepare cfg nvm =
    Config.validate cfg;
    if Nvm.size nvm <> Config.nvm_size cfg then
      invalid_arg "Dudetm.attach: device size does not match the configuration";
    (* Recovery is itself crash-consistent: destructive recovery-time
       writes are ordered behind the intent journal.  First, undo any probe
       pattern a crashed scrub left in the heap — before trusting a single
       heap byte.  (The Skip_recovery_journal mutant bypasses the journal
       to prove the nested-crash campaign catches exactly this.) *)
    let use_journal = not (Inject.armed Skip_recovery_journal) in
    let rjournal = Rjournal.attach nvm ~base:(Config.rjournal_base cfg) in
    if use_journal then Rjournal.undo_probe rjournal;
    let ckpt, state = Checkpoint.attach nvm ~base:(Config.meta_base cfg) ~size:cfg.Config.meta_size in
    let c = state.Checkpoint.reproduced_upto in
    let repro_alloc = Alloc.restore state.Checkpoint.free_extents in
    let regions = Config.plog_regions cfg in
    let attached =
      Array.init regions (fun r ->
          Plog.attach_scan nvm ~base:(Config.plog_base cfg r) ~size:cfg.Config.plog_size)
    in
    let plogs = Array.map fst attached in
    let corrupted_records =
      Array.fold_left (fun acc (_, s) -> acc + s.Plog.corrupted_records) 0 attached
    in
    let quarantined_lines =
      Array.fold_left (fun acc (_, s) -> acc + s.Plog.quarantined_lines) 0 attached
    in
    if corrupted_records > 0 then Nvm.note_media_detected nvm corrupted_records;
    let items, all_tids, d =
      scan_items cfg
        (List.concat_map (fun (_, scan) -> scan.Plog.records) (Array.to_list attached))
        ~ckpt_upto:c
    in
    let fragments = List.concat_map (fun (_, _, es) -> Log_entry.cross_seals es) items in
    {
      p_cfg = cfg;
      p_nvm = nvm;
      p_rjournal = rjournal;
      p_use_journal = use_journal;
      p_ckpt = ckpt;
      p_ckpt_upto = c;
      p_frontier = state.Checkpoint.cross_frontier;
      p_repro_alloc = repro_alloc;
      p_plogs = plogs;
      p_corrupted = corrupted_records;
      p_quarantined = quarantined_lines;
      p_items = items;
      p_all_tids = all_tids;
      p_durable = d;
      p_fragments = List.sort compare fragments;
    }

  let attach_commit ?durable_cut p =
    Trace.span ~cat:"recovery" "attach" @@ fun () ->
    let cfg = p.p_cfg in
    let nvm = p.p_nvm in
    let c = p.p_ckpt_upto in
    let repro_alloc = p.p_repro_alloc in
    (* The cross-shard vote can only shrink the durable prefix (discarding
       fragments of incomplete cross-shard transaction sets, and with them
       the suffix behind the cut), never extend it and never cut below the
       checkpoint. *)
    let d =
      match durable_cut with
      | None -> p.p_durable
      | Some cut ->
        if cut > p.p_durable then
          invalid_arg "Dudetm.attach_commit: durable cut beyond the scanned prefix";
        max c cut
    in
    let keep, dropped =
      List.partition (fun (lo, hi, _) -> lo > c && hi <= d) p.p_items
    in
    let discarded_txs =
      Hashtbl.fold (fun tid () acc -> if tid > d then acc + 1 else acc) p.p_all_tids 0
    in
    let discarded_records =
      List.length (List.filter (fun (lo, _, _) -> lo > d) dropped)
    in
    let replayed_txs =
      List.fold_left (fun acc (lo, hi, _) -> acc + (hi - lo + 1)) 0 keep
    in
    let rjournal = p.p_rjournal in
    let use_journal = p.p_use_journal in
    let ckpt = p.p_ckpt in
    let plogs = p.p_plogs in
    (* The recovery verdict is fully determined before any heap mutation.
       If a previous attach sealed a verdict for the same durable ID and
       then crashed mid-recovery, adopt it: the report converges to the
       pre-crash verdict no matter where that crash landed (e.g. after the
       rings were already recycled, when a fresh scan would count zero
       replayed transactions).  Then seal this attach's verdict before the
       replay below mutates anything. *)
    let verdict =
      match Rjournal.read rjournal with
      | Rjournal.Replay v when use_journal && v.durable = d -> v
      | _ ->
        {
          durable = d;
          replayed_txs;
          discarded_txs;
          discarded_records;
          corrupted_records = p.p_corrupted;
          quarantined_lines = p.p_quarantined;
        }
    in
    if use_journal then Rjournal.write rjournal (Rjournal.Replay verdict);
    (* Replay in transaction-ID order. *)
    let ranges = ref [] in
    let replayed_extents = Hashtbl.create 64 in
    let frontier =
      List.fold_left
        (fun frontier (_, _, entries) ->
          redo_entries nvm repro_alloc ~extents:replayed_extents ~ranges ~frontier entries)
        p.p_frontier keep
    in
    Nvm.persist_ranges nvm !ranges;
    (* Reproduce may have written these same extents after the last
       checkpoint without refreshing their directory entries (that happens
       at checkpoint time); the replay just rewrote them, so reseal their
       CRCs now. *)
    let crcdir = Crcdir.attach nvm cfg in
    Crcdir.update crcdir (Hashtbl.fold (fun e () acc -> e :: acc) replayed_extents []);
    Checkpoint.write ckpt
      { Checkpoint.reproduced_upto = d; cross_frontier = frontier;
        free_extents = Alloc.extents repro_alloc };
    Array.iter
      (fun plog -> Plog.recycle_to plog ~end_off:(Plog.tail_off plog) ~next_seq:(Plog.next_seq plog))
      plogs;
    (* The verdict stays sealed: clearing it here would open a window (a
       crash right after the clear persists) where a re-attach sees the
       recycled rings and reports zero replayed transactions.  The
       [durable = d] guard above retires it naturally once new
       transactions advance the durable ID. *)
    let badlines, _ = Badline.attach nvm cfg in
    let t =
      build cfg nvm ~tid_base:d ~plogs ~ckpt ~rjournal ~crcdir ~badlines
        ~allocator:(Alloc.copy repro_alloc) ~repro_alloc
    in
    shun_bad_lines t;
    t.persisted_data <- d;
    t.checkpointed <- d;
    t.cross_frontier <- frontier;
    (t, verdict)

  let attach cfg nvm = attach_commit (attach_prepare cfg nvm)

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
