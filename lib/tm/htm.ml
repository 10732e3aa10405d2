module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Trace = Dudetm_trace.Trace

exception Retry
exception Capacity

let line_of_addr addr = addr lsr 6

type tx = {
  tm : t;
  uid : int;
  mutable doomed : bool;
  reads : (int, unit) Hashtbl.t;  (* line numbers *)
  wbuf : (int, int64) Hashtbl.t;  (* addr -> buffered value *)
  wlines : (int, unit) Hashtbl.t;
  worder : int list ref;  (* write addresses, oldest first, for replay order *)
  fallback : bool;
  mutable undo : (int * int64) list;  (* fallback mode only *)
  mutable nwrites : int;
  mutable active : bool;
}

and t = {
  store : Tm_intf.store;
  capacity_lines : int;
  max_retries : int;
  tid_conflicts : bool;
  mutable clock : int;
  mutable next_uid : int;
  running : (int, tx) Hashtbl.t;  (* uid -> active hardware txs *)
  mutable lock_owner : int;  (* 0 = fallback lock free *)
  lock_freed : Sched.cond;  (* [lock_owner] returned to 0 *)
  lock_freed_on : Sched.cond list;
  stats : Stats.t;
  rng : Rng.t;
}

(* L2-assisted read tracking: read-set lines before a capacity abort. *)
let read_capacity_lines = 8192

let create_htm ?(seed = 42) ?(capacity_lines = 448)
    ?(max_retries = 5) ?(tid_conflicts = false) store =
  let lock_freed = Sched.cond () in
  {
    store;
    capacity_lines;
    max_retries;
    tid_conflicts;
    clock = 0;
    next_uid = 1;
    running = Hashtbl.create 16;
    lock_owner = 0;
    lock_freed;
    lock_freed_on = [ lock_freed ];
    stats = Stats.create ();
    rng = Rng.create seed;
  }

let create ?seed store = create_htm ?seed store

(* Hardware transactional reads cost nearly the same as instrumented ones
   (the memory access dominates); writes shed the software write barrier.
   Derived from the software costs so STM/HTM comparisons share one
   calibration. *)
let hw_read_cost = max 1 (Tm_intf.default_costs.read_cost - 5)
let hw_write_cost = max 2 (Tm_intf.default_costs.write_cost / 5)

let fresh_tx tm ~fallback =
  let uid = tm.next_uid in
  tm.next_uid <- uid + 1;
  let tx =
    {
      tm;
      uid;
      doomed = false;
      reads = Hashtbl.create 32;
      wbuf = Hashtbl.create 16;
      wlines = Hashtbl.create 16;
      worder = ref [];
      fallback;
      undo = [];
      nwrites = 0;
      active = true;
    }
  in
  if not fallback then Hashtbl.add tm.running uid tx;
  tx

let begin_tx tm =
  Sched.advance (max 1 (Tm_intf.default_costs.begin_cost / 2));
  fresh_tx tm ~fallback:false

let drop tx =
  if not tx.fallback then Hashtbl.remove tx.tm.running tx.uid;
  tx.active <- false

let hw_abort tx kind =
  Stats.incr tx.tm.stats "aborts";
  Stats.incr tx.tm.stats kind;
  drop tx;
  Sched.advance Tm_intf.default_costs.abort_cost;
  raise (if kind = "capacity_aborts" then Capacity else Retry)

(* A hardware transaction subscribes to the fallback lock word at begin:
   seeing it held at any later point is a conflict, exactly as a real RTM
   transaction aborts when the lock's cache line is invalidated.  This
   closes the window where a transaction begins while the lock is being
   acquired and would otherwise miss the acquirer's doom sweep. *)
let check_doomed tx =
  if tx.doomed || tx.tm.lock_owner <> 0 then hw_abort tx "conflict_aborts"

let read tx addr =
  if not tx.active then invalid_arg "Htm.read: transaction not active";
  if tx.fallback then begin
    Sched.advance hw_read_cost;
    tx.tm.store.Tm_intf.load addr
  end
  else begin
    Sched.advance hw_read_cost;
    check_doomed tx;
    Stats.incr tx.tm.stats "reads";
    let line = line_of_addr addr in
    if not (Hashtbl.mem tx.reads line) then begin
      Hashtbl.add tx.reads line ();
      if Hashtbl.length tx.reads > read_capacity_lines then
        hw_abort tx "capacity_aborts"
    end;
    match Hashtbl.find_opt tx.wbuf addr with
    | Some v -> v
    | None -> tx.tm.store.Tm_intf.load addr
  end

let write tx addr value =
  if not tx.active then invalid_arg "Htm.write: transaction not active";
  Sched.advance hw_write_cost;
  if tx.fallback then begin
    tx.undo <- (addr, tx.tm.store.Tm_intf.load addr) :: tx.undo;
    tx.tm.store.Tm_intf.store addr value;
    tx.nwrites <- tx.nwrites + 1
  end
  else begin
    check_doomed tx;
    Stats.incr tx.tm.stats "writes";
    let line = line_of_addr addr in
    if not (Hashtbl.mem tx.wlines line) then begin
      Hashtbl.add tx.wlines line ();
      if Hashtbl.length tx.wlines > tx.tm.capacity_lines then
        hw_abort tx "capacity_aborts"
    end;
    if not (Hashtbl.mem tx.wbuf addr) then tx.worder := addr :: !(tx.worder);
    Hashtbl.replace tx.wbuf addr value;
    tx.nwrites <- tx.nwrites + 1
  end

let free_lock tm =
  tm.lock_owner <- 0;
  Sched.signal tm.lock_freed

let user_abort tx =
  if tx.fallback then begin
    List.iter (fun (addr, v) -> tx.tm.store.Tm_intf.store addr v) tx.undo;
    free_lock tx.tm;
    drop tx
  end
  else drop tx;
  raise Tm_intf.User_abort

(* Doom every running hardware transaction whose footprint intersects
   [wlines]; with stock hardware ([tid_conflicts]) a committing write
   transaction also touches the shared ID counter's line, which every
   concurrent transaction is considered to have subscribed to. *)
let doom_conflicting tm ~committer ~wlines ~wrote =
  Hashtbl.iter
    (fun uid tx ->
      if uid <> committer && not tx.doomed then begin
        let hit =
          (wrote && tm.tid_conflicts)
          || Hashtbl.fold
               (fun line () acc ->
                 acc || Hashtbl.mem tx.reads line || Hashtbl.mem tx.wlines line)
               wlines false
        in
        if hit then tx.doomed <- true
      end)
    tm.running

let commit tx =
  if not tx.active then invalid_arg "Htm.commit: transaction not active";
  let tm = tx.tm in
  if tx.fallback then begin
    Sched.advance Tm_intf.default_costs.commit_base;
    let tid = if tx.nwrites = 0 then 0 else (tm.clock <- tm.clock + 1; tm.clock) in
    free_lock tm;
    drop tx;
    if tx.nwrites = 0 then Stats.incr tm.stats "read_only_commits"
    else Stats.incr tm.stats "commits";
    tid
  end
  else begin
    Sched.advance (max 1 (Tm_intf.default_costs.commit_base / 2));
    check_doomed tx;
    if tx.nwrites = 0 then begin
      Stats.incr tm.stats "read_only_commits";
      drop tx;
      0
    end
    else begin
      (* Atomic commit point: apply the buffer, doom overlapping peers, and
         draw the transaction ID — no yield points in between. *)
      List.iter
        (fun addr -> tm.store.Tm_intf.store addr (Hashtbl.find tx.wbuf addr))
        (List.rev !(tx.worder));
      doom_conflicting tm ~committer:tx.uid ~wlines:tx.wlines ~wrote:true;
      let wv = tm.clock + 1 in
      tm.clock <- wv;
      Stats.incr tm.stats "commits";
      drop tx;
      wv
    end
  end

let run ?(on_retry = fun () -> ()) tm f =
  let run_fallback () =
    Stats.incr tm.stats "fallbacks";
    Sched.wait_on tm.lock_freed_on ~label:"htm fallback lock" (fun () -> tm.lock_owner = 0);
    Trace.span_begin ~cat:"tm" "fallback";
    let tx = fresh_tx tm ~fallback:true in
    tm.lock_owner <- tx.uid;
    (* Acquiring the lock aborts every running hardware transaction: they
       all subscribed to the lock word at begin. *)
    Hashtbl.iter (fun uid t -> if uid <> tx.uid then t.doomed <- true) tm.running;
    match
      let result = f tx in
      let tid = commit tx in
      (result, tid)
    with
    | pair ->
      Trace.span_end ~cat:"tm" "fallback";
      Some pair
    | exception Tm_intf.User_abort ->
      on_retry ();
      Trace.span_end ~cat:"tm" "fallback";
      None
    | exception e ->
      if tx.active then begin
        List.iter (fun (addr, v) -> tm.store.Tm_intf.store addr v) tx.undo;
        free_lock tm;
        drop tx
      end;
      on_retry ();
      Trace.span_end ~cat:"tm" "fallback";
      raise e
  in
  let rec attempt round =
    if round >= tm.max_retries then run_fallback ()
    else begin
      Sched.wait_on tm.lock_freed_on ~label:"htm begin (fallback held)" (fun () ->
          tm.lock_owner = 0);
      Trace.span_begin ~cat:"tm" "attempt";
      let tx = begin_tx tm in
      match
        let result = f tx in
        let tid = commit tx in
        (result, tid)
      with
      | pair ->
        Trace.span_end ~cat:"tm" "attempt";
        Some pair
      | exception Retry ->
        on_retry ();
        Trace.span_end ~cat:"tm" "attempt";
        let pause = 32 + Rng.int tm.rng (32 lsl min round 6) in
        Stats.incr tm.stats "backoffs";
        Stats.add tm.stats "backoff_cycles" pause;
        Trace.sample ~cat:"tm" "backoff" pause;
        Trace.instant ~cat:"tm" "backoff" pause;
        Sched.advance pause;
        attempt (round + 1)
      | exception Capacity ->
        on_retry ();
        Trace.span_end ~cat:"tm" "attempt";
        (* Retrying cannot help a capacity overflow: go straight to the
           lock. *)
        run_fallback ()
      | exception Tm_intf.User_abort ->
        on_retry ();
        Trace.span_end ~cat:"tm" "attempt";
        None
      | exception e ->
        if tx.active then drop tx;
        on_retry ();
        Trace.span_end ~cat:"tm" "attempt";
        raise e
    end
  in
  attempt 0

let last_tid tm = tm.clock

let stats tm = tm.stats

(* --- Read-only snapshot fast path --- *)

(* A read-only HTM transaction is an ordinary hardware transaction that
   happens to write nothing: conflict detection (dooming) gives it a
   consistent view, and the commit skips the ID draw on both the hardware
   and the fallback path, so it never touches the shared counter line.
   The epoch is the clock at the commit point — commit's doom check and
   the return run without yield points, so reading it here is exact. *)

type ro = tx

let run_ro ?pin ?on_retry tm f =
  match run ?on_retry tm f with
  | None -> None
  | Some (v, _tid) ->
    let epoch = tm.clock in
    (match pin with
    | None -> ()
    | Some { Tm_intf.watermark; on } ->
      (* Durable-only mode: hold the result until the watermark covers the
         commit-point clock, so everything the transaction observed is
         crash-surviving when it returns.  Bounded by the group-commit
         deadline. *)
      if watermark () < epoch then
        Sched.wait_on on ~label:"htm ro durable pin" (fun () -> watermark () >= epoch));
    Stats.incr tm.stats "snapshot_commits";
    Some (v, epoch)

let ro_read = read

let ro_epoch (tx : ro) = tx.tm.clock

let ro_abort = user_abort
