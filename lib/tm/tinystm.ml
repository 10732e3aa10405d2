module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Trace = Dudetm_trace.Trace

exception Retry

type t = {
  store : Tm_intf.store;
  locks : Lock_table.t;
  costs : Tm_intf.costs;
  mutable clock : int;
  mutable next_uid : int;
  stats : Stats.t;
  rng : Rng.t;
}

type tx = {
  tm : t;
  uid : int;
  mutable rv : int;  (* snapshot (read version) *)
  mutable reads : (int * int) list;  (* (stripe, observed version) *)
  mutable acquired : int list;  (* stripes in acquisition order *)
  owned : (int, int) Hashtbl.t;  (* stripe -> pre-acquisition version *)
  mutable undo : (int * int64) list;  (* (addr, old value), newest first *)
  mutable nwrites : int;
  mutable active : bool;
}

let create_with_bits ?(costs = Tm_intf.default_costs) ?(seed = 42) ~bits store =
  {
    store;
    locks = Lock_table.create ~bits ();
    costs;
    clock = 0;
    next_uid = 1;
    stats = Stats.create ();
    rng = Rng.create seed;
  }

let create ?costs ?seed store = create_with_bits ?costs ?seed ~bits:20 store

let begin_tx tm =
  Sched.advance tm.costs.Tm_intf.begin_cost;
  let uid = tm.next_uid in
  tm.next_uid <- uid + 1;
  {
    tm;
    uid;
    rv = tm.clock;
    reads = [];
    acquired = [];
    owned = Hashtbl.create 8;
    undo = [];
    nwrites = 0;
    active = true;
  }

(* Restore shadow words newest-first (so the oldest value of a
   multiply-written address lands last) and hand every owned stripe back at
   its pre-acquisition version.  Runs atomically: no yield points inside. *)
let rollback tx =
  List.iter (fun (addr, v) -> tx.tm.store.Tm_intf.store addr v) tx.undo;
  List.iter
    (fun stripe ->
      let version = Hashtbl.find tx.owned stripe in
      Lock_table.release_to tx.tm.locks ~stripe ~version)
    tx.acquired;
  tx.active <- false

let conflict tx =
  Stats.incr tx.tm.stats "aborts";
  rollback tx;
  Sched.advance tx.tm.costs.Tm_intf.abort_cost;
  raise Retry

(* A read-set entry is still valid if its stripe carries the version we
   observed, or we own it and its saved pre-acquisition version matches. *)
let validate tx =
  List.for_all
    (fun (stripe, v) ->
      match Lock_table.read_word tx.tm.locks stripe with
      | Lock_table.Version cur -> cur = v
      | Lock_table.Owned uid ->
        uid = tx.uid && (match Hashtbl.find_opt tx.owned stripe with
                        | Some prev -> prev = v
                        | None -> false))
    tx.reads

let read tx addr =
  if not tx.active then invalid_arg "Tinystm.read: transaction not active";
  Sched.advance tx.tm.costs.Tm_intf.read_cost;
  Stats.incr tx.tm.stats "reads";
  let stripe = Lock_table.stripe_of_addr tx.tm.locks addr in
  match Lock_table.read_word tx.tm.locks stripe with
  | Lock_table.Owned uid when uid = tx.uid -> tx.tm.store.Tm_intf.load addr
  | Lock_table.Owned _ -> conflict tx
  | Lock_table.Version v ->
    let value = tx.tm.store.Tm_intf.load addr in
    if v > tx.rv then
      (* Snapshot extension: the word committed after our snapshot; if the
         rest of the read set is untouched we may slide the snapshot
         forward instead of aborting. *)
      if validate tx then tx.rv <- tx.tm.clock else conflict tx;
    tx.reads <- (stripe, v) :: tx.reads;
    value

let write tx addr value =
  if not tx.active then invalid_arg "Tinystm.write: transaction not active";
  Sched.advance tx.tm.costs.Tm_intf.write_cost;
  Stats.incr tx.tm.stats "writes";
  let stripe = Lock_table.stripe_of_addr tx.tm.locks addr in
  (match Lock_table.read_word tx.tm.locks stripe with
  | Lock_table.Owned uid when uid = tx.uid -> ()
  | Lock_table.Owned _ -> conflict tx
  | Lock_table.Version _ -> (
    match Lock_table.acquire tx.tm.locks ~stripe ~uid:tx.uid with
    | Some prev ->
      Hashtbl.add tx.owned stripe prev;
      tx.acquired <- stripe :: tx.acquired
    | None -> conflict tx));
  tx.undo <- (addr, tx.tm.store.Tm_intf.load addr) :: tx.undo;
  tx.tm.store.Tm_intf.store addr value;
  tx.nwrites <- tx.nwrites + 1

let user_abort tx =
  rollback tx;
  raise Tm_intf.User_abort

let commit tx =
  if not tx.active then invalid_arg "Tinystm.commit: transaction not active";
  Sched.advance
    (tx.tm.costs.Tm_intf.commit_base + (tx.tm.costs.Tm_intf.commit_per_write * tx.nwrites));
  if tx.nwrites = 0 then begin
    (* Read-only fast path: every read was consistent with snapshot [rv]. *)
    Stats.incr tx.tm.stats "read_only_commits";
    tx.active <- false;
    0
  end
  else if not (validate tx) then conflict tx
  else begin
    (* Validation, clock bump and lock release form one atomic step (no
       yield points), so write-transaction IDs are contiguous. *)
    let wv = tx.tm.clock + 1 in
    tx.tm.clock <- wv;
    List.iter
      (fun stripe -> Lock_table.release_to tx.tm.locks ~stripe ~version:wv)
      tx.acquired;
    Stats.incr tx.tm.stats "commits";
    tx.active <- false;
    wv
  end

let run ?(on_retry = fun () -> ()) tm f =
  let rec attempt round =
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
      (* Randomized exponential backoff, capped: the standard STM recipe. *)
      let cap = min 4096 (64 lsl min round 10) in
      let pause = 64 + Rng.int tm.rng cap in
      Stats.incr tm.stats "backoffs";
      Stats.add tm.stats "backoff_cycles" pause;
      Trace.sample ~cat:"tm" "backoff" pause;
      Trace.instant ~cat:"tm" "backoff" pause;
      Sched.advance pause;
      attempt (round + 1)
    | exception Tm_intf.User_abort ->
      on_retry ();
      Trace.span_end ~cat:"tm" "attempt";
      None
    | exception e ->
      if tx.active then rollback tx;
      on_retry ();
      Trace.span_end ~cat:"tm" "attempt";
      raise e
  in
  attempt 0

let last_tid tm = tm.clock

let clock = last_tid

let stats tm = tm.stats

(* --- Read-only snapshot fast path (lib/tm/snapshot.ml) --- *)

type ro = Snapshot.ro

let snapshot_handle tm =
  {
    Snapshot.h_load = tm.store.Tm_intf.load;
    h_locks = tm.locks;
    h_clock = (fun () -> tm.clock);
    h_costs = tm.costs;
    h_stats = tm.stats;
    h_rng = tm.rng;
  }

let run_ro ?pin ?validate_extension ?on_retry tm f =
  Snapshot.run ?pin ?validate_extension ?on_retry (snapshot_handle tm) f

let ro_read = Snapshot.read

let ro_epoch = Snapshot.epoch

let ro_abort = Snapshot.abort
