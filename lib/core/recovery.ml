(* Two-phase recovery from a crashed device (Section 3.6): a
   non-destructive scan of the checkpoint and the log rings, then the
   destructive replay of the durable prefix. *)

open Engine_state

(* Replay order is transaction-ID order: by ID range, and items holding
   the same range keep their scan order (the sort is stable). *)
let compare_items a b =
  match Int.compare a.lo b.lo with
  | 0 -> Int.compare a.hi b.hi
  | c -> c

(* Recovery never queues its items, so they name no ring. *)
let scan_items cfg records ~ckpt_upto =
  let all_tids = Hashtbl.create 1024 in
  let items =
    List.concat_map
      (fun (record : Plog.record) ->
        let body, pos = Log_entry.plain_body record.Plog.payload in
        let items =
          item_list (Persist.scan_record cfg ~region:(-1) body pos (Bytes.length body))
        in
        List.iter
          (fun it ->
            for tid = it.lo to it.hi do
              Hashtbl.replace all_tids tid ()
            done)
          items;
        items)
      records
  in
  (* Durable ID: largest contiguous extension of the checkpoint. *)
  let d = ref ckpt_upto in
  while Hashtbl.mem all_tids (!d + 1) do
    incr d
  done;
  (List.stable_sort compare_items items, all_tids, !d)

(* [(gtid, mask, tid)] of an item's fragment seals, in body order. *)
let cross_seals it =
  let seals = ref [] and p = ref it.pos in
  while !p < it.stop do
    let tag = Log_entry.tag_at it.body !p ~stop:it.stop in
    (match tag with
    | Log_entry.Cross_tag ->
      let f = Log_entry.field it.body !p in
      seals := (f 0, f 1, f 2) :: !seals
    | Log_entry.Write_tag | Log_entry.Alloc_tag | Log_entry.Free_tag | Log_entry.Tx_end_tag
      -> ());
    p := !p + Log_entry.tag_size tag
  done;
  List.rev !seals

(* Recovery state between the non-destructive scan ([prepare]) and the
   destructive replay ([commit]).  The sharding layer prepares every
   region first, runs the cross-shard vote over the scanned fragments and
   checkpointed frontiers, and only then commits each region with its
   voted durable cut. *)
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
  p_items : item list;  (* sorted *)
  p_all_tids : (int, unit) Hashtbl.t;
  p_durable : int;  (* candidate durable ID, before any cross-shard vote *)
  p_fragments : (int * int * int) list;  (* scanned (gtid, mask, tid) seals *)
}

let prepared_durable p = p.p_durable
let prepared_frontier p = p.p_frontier
let prepared_fragments p = p.p_fragments
let prepared_checkpoint_upto p = p.p_ckpt_upto

let prepare cfg nvm =
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
  let items, all_tids, d =
    scan_items cfg
      (List.concat_map (fun (_, scan) -> scan.Plog.records) (Array.to_list attached))
      ~ckpt_upto:c
  in
  let fragments = List.concat_map cross_seals items in
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

let commit ops ?durable_cut p =
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
  let keep, dropped = List.partition (fun it -> it.lo > c && it.hi <= d) p.p_items in
  let discarded_txs =
    Hashtbl.fold (fun tid () acc -> if tid > d then acc + 1 else acc) p.p_all_tids 0
  in
  let discarded_records = List.length (List.filter (fun it -> it.lo > d) dropped) in
  let replayed_txs = List.fold_left (fun acc it -> acc + (it.hi - it.lo + 1)) 0 keep in
  (* The recovery verdict is fully determined before any heap mutation.
     If a previous attach sealed a verdict for the same durable ID and
     then crashed mid-recovery, adopt it: the report converges to the
     pre-crash verdict no matter where that crash landed (e.g. after the
     rings were already recycled, when a fresh scan would count zero
     replayed transactions).  Then seal this attach's verdict before the
     replay below mutates anything. *)
  let verdict =
    match Rjournal.read p.p_rjournal with
    | Rjournal.Replay v when p.p_use_journal && v.durable = d -> v
    | _ ->
      {
        Rjournal.durable = d;
        replayed_txs;
        discarded_txs;
        discarded_records;
        corrupted_records = p.p_corrupted;
        quarantined_lines = p.p_quarantined;
      }
  in
  if p.p_use_journal then Rjournal.write p.p_rjournal (Rjournal.Replay verdict);
  (* Replay in transaction-ID order. *)
  let replayed = addrs () in
  let replayed_extents = Crcdir.dirty () in
  let frontier =
    List.fold_left
      (fun frontier it ->
        Reproduce.redo nvm repro_alloc ~extents:replayed_extents replayed ~frontier it)
      p.p_frontier keep
  in
  Nvm.persist_words nvm replayed.buf replayed.len;
  (* Reproduce may have written these same extents after the last
     checkpoint without refreshing their directory entries (that happens
     at checkpoint time); the replay just rewrote them, so reseal their
     CRCs now. *)
  let crcdir = Crcdir.attach nvm cfg in
  Crcdir.update crcdir replayed_extents;
  Checkpoint.write p.p_ckpt
    { Checkpoint.reproduced_upto = d; cross_frontier = frontier;
      free_extents = Alloc.extents repro_alloc };
  Array.iter
    (fun plog -> Plog.recycle_to plog ~end_off:(Plog.tail_off plog) ~next_seq:(Plog.next_seq plog))
    p.p_plogs;
  (* The verdict stays sealed: clearing it here would open a window (a
     crash right after the clear persists) where a re-attach sees the
     recycled rings and reports zero replayed transactions.  The
     [durable = d] guard above retires it naturally once new
     transactions advance the durable ID. *)
  let badlines, _ = Badline.attach nvm cfg in
  let t =
    build ops cfg nvm ~tid_base:d ~plogs:p.p_plogs ~ckpt:p.p_ckpt ~rjournal:p.p_rjournal
      ~crcdir ~badlines ~allocator:(Alloc.copy repro_alloc) ~repro_alloc
  in
  shun_bad_lines t;
  t.persisted_data <- d;
  t.checkpointed <- d;
  t.cross_frontier <- frontier;
  (t, verdict)
