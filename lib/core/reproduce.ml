(* The Reproduce step (Section 3.4): one background daemon replays
   durable records onto the home NVM locations in transaction-ID order,
   persists the reproduced data, checkpoints the allocator and watermark,
   and recycles the rings. *)

open Engine_state

(* The one redo routine, shared by Reproduce and recovery replay: apply
   one replay item's entries, read in place from its record's body, onto
   the device — home stores (their addresses queued in [addrs] for the
   caller's persist ordering, their CRC extents marked in [extents]),
   allocator replay, and the cross-shard frontier raised to the item's
   highest sealed global ID.  Returns the new frontier. *)
let redo nvm alloc ~extents addrs ~frontier it =
  let body = it.body and stop = it.stop in
  let p = ref it.pos in
  while !p < stop do
    let tag = Log_entry.tag_at body !p ~stop in
    (match tag with
    | Log_entry.Write_tag ->
      let addr = Log_entry.field body !p 0 in
      Nvm.store_sub nvm addr body ~pos:(Log_entry.field_pos !p 1) ~len:8;
      push_addr addrs addr;
      Crcdir.mark extents (addr / Config.crc_extent);
      Crcdir.mark extents ((addr + 7) / Config.crc_extent)
    | Log_entry.Alloc_tag ->
      Alloc.reserve alloc ~off:(Log_entry.field body !p 0) ~len:(Log_entry.field body !p 1)
    | Log_entry.Free_tag ->
      Alloc.free alloc ~off:(Log_entry.field body !p 0) ~len:(Log_entry.field body !p 1)
    | Log_entry.Cross_tag | Log_entry.Tx_end_tag -> ());
    p := !p + Log_entry.tag_size tag
  done;
  max frontier it.cross

(* Reproduce's wait list is built here, once: the gate comes with the
   conds of the state it reads.  Before [start] only, so a parked
   Reproduce never holds a stale list. *)
let set_replay_gate t ~on gate =
  if t.started then invalid_arg "Dudetm.set_replay_gate: engine already started";
  t.replay_gate <- gate;
  t.repro_on <- t.wake_repro :: t.wake_stop :: on

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
  && ((not (Inject.armed Skip_batch_seal)) || next_region t >= 0)
  && (match t.replay_gate with
     | Some gate -> (
       match next_region t with -1 -> true | r -> gate (Queue.peek t.queues.(r)))
     | None -> true)

(* Recycling is due early once some ring runs below a quarter free. *)
let recycle_pressure t =
  t.recycle_notes > 0
  && Array.exists (fun p -> Plog.free_space p < Plog.data_capacity p / 4) t.plogs

(* Persist every reproduced-but-unpersisted home word, newest first, and
   advance the persisted-data watermark.  The addresses live in [t] so a
   daemon restart between applying items and persisting them cannot drop
   the fence: the restarted daemon (or the checkpoint below) still
   flushes them before any checkpoint covers the applied IDs.  The
   Unfenced_reproduce mutant (checker self-test only) skips the fence. *)
let flush_reproduced t =
  let a = t.repro_addrs in
  if a.len > 0 then begin
    if not (Inject.armed Unfenced_reproduce) then Nvm.persist_words t.nvm a.buf a.len;
    a.len <- 0
  end;
  t.persisted_data <- applied t

(* Recycle each noted ring up to its furthest replayed record, in region
   order. *)
let recycle_rings t =
  for r = 0 to Array.length t.plogs - 1 do
    if t.recycle_end.(r) >= 0 then begin
      Plog.recycle_to t.plogs.(r) ~end_off:t.recycle_end.(r) ~next_seq:t.recycle_seq.(r);
      t.recycle_end.(r) <- -1
    end
  done;
  t.recycle_notes <- 0

let checkpoint_body t =
  (* A daemon restart may have left applied items whose data persist is
     still pending; fence them before the checkpoint can cover them. *)
  flush_reproduced t;
  (* Refresh the CRC directory for every heap extent this checkpoint
     covers.  Reproduce has already persisted those extents (the round's
     persist_words precedes the checkpoint), so latest = persisted there
     and the recomputed CRCs seal exactly the checkpointed content. *)
  Crcdir.update t.crcdir t.dirty_extents;
  Checkpoint.write t.ckpt
    {
      Checkpoint.reproduced_upto = t.persisted_data;
      cross_frontier = t.cross_frontier;
      free_extents = Alloc.extents t.repro_alloc;
    };
  recycle_rings t;
  t.checkpointed <- t.persisted_data

let checkpoint t =
  if Trace.enabled () then
    Trace.span ~cat:"reproduce" "checkpoint" (fun () -> checkpoint_body t)
  else checkpoint_body t

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
let apply_item t it =
  Sched.advance (t.cfg.Config.reproduce_cost_per_entry * it.nentries);
  t.cross_frontier <-
    redo t.nvm t.repro_alloc ~extents:t.dirty_extents t.repro_addrs
      ~frontier:t.cross_frontier it;
  t.applied_cell := it.hi;
  Sched.signal t.wake_applied;
  if it.end_off >= 0 then begin
    t.recycle_notes <- t.recycle_notes + 1;
    t.recycle_end.(it.region) <- it.end_off;
    t.recycle_seq.(it.region) <- it.rec_next_seq
  end

let round_body t =
  let batch = ref 0 in
  while can_apply t && !batch < t.cfg.Config.reproduce_batch do
    maybe_fault t "reproduce";
    apply_item t (pop_next_item t);
    incr batch
  done;
  (* One persist ordering covers the whole round's reproduced data. *)
  if !batch > 0 then flush_reproduced t

let round t =
  if Trace.enabled () then Trace.span ~cat:"reproduce" "replay" (fun () -> round_body t)
  else round_body t

let loop t =
  let rec loop () =
    maybe_fault t "reproduce";
    if can_apply t then begin
      round t;
      if t.recycle_notes >= t.cfg.Config.checkpoint_records || recycle_pressure t then
        checkpoint t;
      loop ()
    end
    else if t.stop_flag then begin
      (* Quiesced — or stopped while a cross-shard fragment is still
         gated on a sibling shard; either way checkpoint what is applied
         and exit (the gated suffix replays at the next attach). *)
      if t.recycle_notes > 0 || t.checkpointed < t.persisted_data then checkpoint t
    end
    else begin
      Sched.wait_on t.repro_on ~label:"reproduce: waiting for durable" (fun () ->
          t.stop_flag || can_apply t || recycle_pressure t);
      if (not (can_apply t)) && recycle_pressure t then checkpoint t;
      Sched.yield ();
      loop ()
    end
  in
  loop ()

let spawn t = spawn_daemon t "reproduce" loop
