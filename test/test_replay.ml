(* Replay from the record's bytes: the scan, the one redo routine and the
   direct combined seal agree with the list path they replaced.  That list
   path lives on here only, as the reference: decode the payload, split it
   into replay items, redo each item's entries from the list. *)

module Log_entry = Dudetm_log.Log_entry
module Combine = Dudetm_log.Combine
module Lz = Dudetm_log.Lz
module Plog = Dudetm_log.Plog
module Nvm = Dudetm_nvm.Nvm
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Alloc = Dudetm_core.Alloc
module Crcdir = Dudetm_core.Crcdir
module Engine_state = Dudetm_core.Engine_state
module Persist = Dudetm_core.Persist
module Reproduce = Dudetm_core.Reproduce

(* ------------------------- the list reference ------------------------- *)

let split_txs entries =
  let rec go cur acc = function
    | [] ->
      assert (cur = []);
      List.rev acc
    | (Log_entry.Tx_end { tid } as e) :: rest -> go [] ((tid, List.rev (e :: cur)) :: acc) rest
    | e :: rest -> go (e :: cur) acc rest
  in
  go [] [] entries

let ref_items ~combined entries =
  if not combined then List.map (fun (tid, es) -> (tid, tid, es)) (split_txs entries)
  else
    match Log_list.tids entries with
    | [] -> []
    | first :: _ as tids -> [ (first, List.fold_left max first tids, entries) ]

let ref_cross entries =
  List.fold_left
    (fun acc e -> match e with Log_entry.Cross { gtid; _ } -> max acc gtid | _ -> acc)
    0 entries

let ref_redo nvm alloc ~extents ~ranges ~frontier entries =
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

(* The combiner's list seal: surviving writes in first-occurrence order,
   then allocation events and fragment seals, then end marks. *)
let ref_combine group =
  let last = Hashtbl.create 16 and order = ref [] and others = ref [] and ends = ref [] in
  List.iter
    (fun e ->
      match e with
      | Log_entry.Write { addr; value } ->
        if not (Hashtbl.mem last addr) then order := addr :: !order;
        Hashtbl.replace last addr value
      | Log_entry.Tx_end _ -> ends := e :: !ends
      | Log_entry.Alloc _ | Log_entry.Free _ | Log_entry.Cross _ -> others := e :: !others)
    group;
  List.rev_map (fun addr -> Log_entry.Write { addr; value = Hashtbl.find last addr }) !order
  @ List.rev !others @ List.rev !ends

(* --------------------------- generated records ------------------------ *)

(* Writes land in the first 1 KiB; the allocator manages 64-byte slots
   above it.  Each generated op becomes a Write, an Alloc or Free that is
   valid in ID order (a slot flips between free and allocated), or a
   fragment seal. *)
let device_size = 4096

let heap_base = 1024

let nslots = (device_size - heap_base) / 64

let txs_of_ops records =
  let tid = ref 0 and allocated = Array.make nslots false in
  List.map
    (List.map (fun ops ->
         incr tid;
         let entry (k, a, b) =
           if k < 6 then Log_entry.Write { addr = 8 * (a mod 128); value = Int64.of_int (b mod 5) }
           else if k < 8 then begin
             let s = a mod nslots in
             let off = heap_base + (64 * s) in
             allocated.(s) <- not allocated.(s);
             if allocated.(s) then Log_entry.Alloc { off; len = 64 }
             else Log_entry.Free { off; len = 64 }
           end
           else Log_entry.Cross { gtid = 1 + (a mod 40); mask = 1 + (b mod 15); tid = !tid }
         in
         (!tid, List.map entry ops)))
    records

let gen_case =
  QCheck2.Gen.(
    let op = triple (int_range 0 9) (int_range 0 1000) (int_range 0 1000) in
    let tx = list_size (int_range 0 6) op in
    let record = list_size (int_range 1 4) tx in
    triple bool bool (list_size (int_range 1 6) record))

(* Each record's plain payload, checking on the way that the combiner's
   direct seal is [encode_plain] of the list seal, byte for byte. *)
let plain_of_record ~combined txs =
  let group =
    List.concat_map (fun (tid, body) -> body @ [ Log_entry.Tx_end { tid } ]) txs
  in
  if not combined then Log_entry.encode_plain group
  else begin
    let b = Combine.builder () in
    Combine.feed_list b group;
    let plain, stats = Combine.seal_payload b in
    let expected = ref_combine group in
    if not (Bytes.equal plain (Log_entry.encode_plain expected)) then
      QCheck2.Test.fail_reportf "direct seal differs from encode_plain of the list seal";
    if stats.Combine.entries_out <> List.length expected then
      QCheck2.Test.fail_reportf "seal counts %d entries out, the list holds %d"
        stats.Combine.entries_out (List.length expected);
    Combine.feed_list b group;
    if fst (Combine.seal b) <> expected then
      QCheck2.Test.fail_reportf "Combine.seal differs from the list seal";
    plain
  end

let payload_of_plain ~compress plain =
  if not compress then plain
  else Log_entry.frame_compressed plain (Lz.compress ~pos:1 ~len:(Bytes.length plain - 1) plain)

(* One replay target: a device with a persist-hook log, an allocator and
   the extents replay marks: the body path's set, the list path's table. *)
type side = {
  nvm : Nvm.t;
  alloc : Alloc.t;
  dirty : Crcdir.dirty;
  extents : (int, unit) Hashtbl.t;
  hooks : string list ref;
}

let side () =
  let nvm = Nvm.create ~charge_time:false Dudetm_nvm.Pmem_config.default ~size:device_size in
  let hooks = ref [] in
  Nvm.set_persist_hook nvm
    (Some
       (fun () ->
         hooks := Digest.bytes (Nvm.persisted_bytes nvm 0 device_size) :: !hooks));
  { nvm; alloc = Alloc.create ~base:heap_base ~size:(device_size - heap_base);
    dirty = Crcdir.dirty (); extents = Hashtbl.create 16; hooks }

(* The table's extents. *)
let fold_keys h = Hashtbl.fold (fun k () acc -> k :: acc) h []

let cfg ~combined ~compress =
  {
    Config.default with
    Config.persist =
      (if combined then Config.Combined { group = 4; compress }
       else Config.Per_thread { daemons = 1; min_entries = 16; max_entries = 128 });
  }

let prop_replay_equivalence =
  QCheck2.Test.make ~name:"replay: body path equals the list path" ~count:300 gen_case
    (fun (combined, compress, records) ->
      let cfg = cfg ~combined ~compress in
      let payloads =
        List.map
          (fun txs -> payload_of_plain ~compress (plain_of_record ~combined txs))
          (txs_of_ops records)
      in
      let body_side = side () and list_side = side () in
      let addrs = Engine_state.addrs () in
      let bf = ref 0 and lf = ref 0 in
      List.iteri
        (fun i payload ->
          (* The last record's stores stay unpersisted for the crash. *)
          let persist = i < List.length payloads - 1 in
          let body, pos = Log_entry.plain_body payload in
          let items =
            Engine_state.item_list
              (Persist.scan_record cfg ~region:0 body pos (Bytes.length body))
          in
          List.iter
            (fun it ->
              bf :=
                Reproduce.redo body_side.nvm body_side.alloc ~extents:body_side.dirty addrs
                  ~frontier:!bf it)
            items;
          if persist then begin
            Nvm.persist_words body_side.nvm addrs.Engine_state.buf addrs.Engine_state.len;
            addrs.Engine_state.len <- 0
          end;
          let refs = ref_items ~combined (Log_entry.decode_payload payload) in
          let ranges = ref [] in
          List.iter
            (fun (_, _, es) ->
              lf :=
                ref_redo list_side.nvm list_side.alloc ~extents:list_side.extents ~ranges
                  ~frontier:!lf es)
            refs;
          if persist then Nvm.persist_ranges list_side.nvm !ranges;
          let summary (it : Engine_state.item) =
            (it.Engine_state.lo, it.hi, it.nentries, it.cross)
          in
          let ref_summary (lo, hi, es) = (lo, hi, List.length es, ref_cross es) in
          if List.map summary items <> List.map ref_summary refs then
            QCheck2.Test.fail_reportf "record %d: items (lo, hi, nentries, cross) differ" i;
          if !bf <> !lf then QCheck2.Test.fail_reportf "record %d: frontier %d <> %d" i !bf !lf)
        payloads;
      let image s = Nvm.load_bytes s.nvm 0 device_size in
      if not (Bytes.equal (image body_side) (image list_side)) then
        QCheck2.Test.fail_reportf "latest images differ";
      if Nvm.dirty_lines body_side.nvm <> Nvm.dirty_lines list_side.nvm then
        QCheck2.Test.fail_reportf "dirty-line counts differ";
      if !(body_side.hooks) <> !(list_side.hooks) then
        QCheck2.Test.fail_reportf "persist-hook firings differ (%d vs %d)"
          (List.length !(body_side.hooks)) (List.length !(list_side.hooks));
      if Alloc.extents body_side.alloc <> Alloc.extents list_side.alloc then
        QCheck2.Test.fail_reportf "allocator extents differ";
      (* The same extents. *)
      if
        List.sort compare (Crcdir.dirty_extents body_side.dirty)
        <> List.sort compare (fold_keys list_side.extents)
      then
        QCheck2.Test.fail_reportf "marked CRC extents differ";
      (* A seeded crash evicts dirty lines in the dirty set's fold order:
         equal survivors mean equal dirty sets, inserted in the same
         order. *)
      let crash s =
        Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create 7) s.nvm;
        (Nvm.last_crash_survivors s.nvm, image s)
      in
      let bs, bi = crash body_side and ls, li = crash list_side in
      if bs <> ls then QCheck2.Test.fail_reportf "crash survivors differ";
      if not (Bytes.equal bi li) then QCheck2.Test.fail_reportf "crashed images differ";
      true)

(* Recovery's order: by ID range, and items of the same range in record
   order.  Every record appears again with perturbed write values, so
   ranges repeat with different bodies. *)
let prop_recovery_order =
  QCheck2.Test.make ~name:"replay: recovery sorts items by ID range, ties in record order" ~count:200
    gen_case (fun (combined, compress, records) ->
      let cfg = cfg ~combined ~compress in
      let txs = txs_of_ops records in
      let perturb =
        List.map (fun (tid, body) ->
            ( tid,
              List.map
                (function
                  | Log_entry.Write { addr; value } ->
                    Log_entry.Write { addr; value = Int64.(rem (add value 3L) 5L) }
                  | e -> e)
                body ))
      in
      let payloads =
        List.map
          (fun txs -> payload_of_plain ~compress (plain_of_record ~combined txs))
          (List.rev_append (List.map perturb txs) txs)
      in
      let records = List.mapi (fun seq payload -> { Plog.seq; payload; end_off = 0 }) payloads in
      let items, _, _ = Dudetm_core.Dudetm.scan_items cfg records ~ckpt_upto:0 in
      let decoded (it : Engine_state.item) =
        ( it.Engine_state.lo,
          it.hi,
          Log_list.decode_list (Bytes.sub it.body it.pos (it.stop - it.pos)) )
      in
      let expected =
        List.stable_sort
          (fun (lo, hi, _) (lo', hi', _) -> compare (lo, hi) (lo', hi'))
          (List.concat_map (fun p -> ref_items ~combined (Log_entry.decode_payload p)) payloads)
      in
      List.map decoded items = expected)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_replay_equivalence;
    QCheck_alcotest.to_alcotest prop_recovery_order;
  ]
