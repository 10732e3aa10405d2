(* Persistent log ring: append/attach, torn records, stale-data rejection,
   wraparound, recycling. *)

module Plog = Dudetm_log.Plog
module Checksum = Dudetm_log.Checksum
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Rng = Dudetm_sim.Rng

let check = Alcotest.check

let device () = Nvm.create ~charge_time:false Pmem_config.default ~size:65536

let payload s = Bytes.of_string s

let test_append_attach () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  let r1 = Plog.append t (payload "first") in
  let r2 = Plog.append t (payload "second") in
  check Alcotest.int "seq 0" 0 r1.Plog.seq;
  check Alcotest.int "seq 1" 1 r2.Plog.seq;
  Nvm.crash nvm;
  let _, records = Plog.attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "both records survive" 2 (List.length records);
  check Alcotest.bytes "payload 1" (payload "first") (List.nth records 0).Plog.payload;
  check Alcotest.bytes "payload 2" (payload "second") (List.nth records 1).Plog.payload

let test_torn_record_discarded () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  ignore (Plog.append t (payload "good"));
  (* Write a record's bytes without persisting: only a random subset of its
     lines may survive the crash — a torn record. *)
  let start_tail = Plog.tail_off t in
  ignore start_tail;
  let frame = Bytes.make 40 'X' in
  Nvm.store_bytes nvm (64 + (Plog.tail_off t mod 4032)) frame;
  Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create 3) nvm;
  let _, records = Plog.attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "only the sealed record survives" 1 (List.length records)

let test_stale_records_not_resurrected () =
  (* After recycling, old bytes remain in the ring; a re-attach must not
     mistake them for live records (sequence numbers prevent it). *)
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  let r1 = Plog.append t (payload "will be recycled") in
  let r2 = Plog.append t (payload "also recycled") in
  ignore r1;
  Plog.recycle_to t ~end_off:r2.Plog.end_off ~next_seq:2;
  Nvm.crash nvm;
  let t', records = Plog.attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "no stale records" 0 (List.length records);
  check Alcotest.int "next seq continues" 2 (Plog.next_seq t')

let test_wraparound () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:512 in
  (* Repeatedly append and recycle so records straddle the ring boundary. *)
  for i = 0 to 30 do
    let p = payload (Printf.sprintf "record-%02d-%s" i (String.make 40 'p')) in
    let r = Plog.append t p in
    Plog.recycle_to t ~end_off:r.Plog.end_off ~next_seq:(r.Plog.seq + 1)
  done;
  let final = Plog.append t (payload "final") in
  Nvm.crash nvm;
  let _, records = Plog.attach nvm ~base:0 ~size:512 in
  check Alcotest.int "final record recovered after many wraps" 1 (List.length records);
  check Alcotest.int "final seq" final.Plog.seq (List.nth records 0).Plog.seq;
  check Alcotest.bytes "final payload" (payload "final") (List.nth records 0).Plog.payload

let test_free_space_accounting () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:1024 in
  let cap = Plog.data_capacity t in
  check Alcotest.int "initially empty" cap (Plog.free_space t);
  let r = Plog.append t (payload "0123456789") in
  check Alcotest.int "used = overhead + payload" (Plog.record_overhead + 10) (Plog.used_space t);
  Plog.recycle_to t ~end_off:r.Plog.end_off ~next_seq:1;
  check Alcotest.int "recycle frees space" cap (Plog.free_space t)

let test_append_without_space_rejected () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:256 in
  Alcotest.check_raises "oversized append rejected" (Invalid_argument "Plog.append: no space")
    (fun () -> ignore (Plog.append t (Bytes.make 4096 'x')))

let test_attach_bad_magic () =
  let nvm = device () in
  Alcotest.check_raises "unformatted region rejected" (Invalid_argument "Plog.attach: bad magic")
    (fun () -> ignore (Plog.attach nvm ~base:0 ~size:4096))

let test_crash_before_header_persist_keeps_old_head () =
  (* recycle_to persists the header; a crash right after append but before
     any recycle must re-expose all records. *)
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  for i = 1 to 5 do
    ignore (Plog.append t (payload (string_of_int i)))
  done;
  Nvm.crash nvm;
  let _, records = Plog.attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "all five records re-exposed" 5 (List.length records)

(* --------------------------- media faults ----------------------------- *)

(* Device byte offset of payload byte [j] of a record in a base-0 ring. *)
let payload_byte_off t (r : Plog.record) j =
  let start = r.Plog.end_off - Plog.record_overhead - Bytes.length r.Plog.payload in
  Plog.header_size + ((start + 16 + j) mod Plog.data_capacity t)

let test_midring_corruption_quarantined () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  let r1 = Plog.append t (payload "the doomed record") in
  let r2 = Plog.append t (payload "second") in
  let r3 = Plog.append t (payload "third") in
  ignore r2;
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = payload_byte_off t r1 3; bit = 5 });
  Nvm.crash nvm;
  let _, scan = Plog.attach_scan nvm ~base:0 ~size:4096 in
  check Alcotest.(list int) "scan resyncs past the damage"
    [ r2.Plog.seq; r3.Plog.seq ]
    (List.map (fun (r : Plog.record) -> r.Plog.seq) scan.Plog.records);
  check Alcotest.int "one sealed record lost" 1 scan.Plog.corrupted_records;
  check Alcotest.bool "damaged lines quarantined" true (scan.Plog.quarantined_lines >= 1);
  check Alcotest.bool "header intact" false scan.Plog.header_lost

let test_resync_across_ring_end () =
  (* After mid-ring damage the scan searches byte by byte for the next
     valid frame.  Put that frame's 24-byte header across the ring end at
     every split (k header bytes before the end), so the search must read
     it wrapped and may not reject it early. *)
  let size = Plog.header_size + 512 in
  for k = 1 to Plog.record_overhead do
    let nvm = device () in
    let t = Plog.format nvm ~base:0 ~size in
    let dcap = Plog.data_capacity t in
    let filler = Plog.append t (Bytes.make (dcap - k - 56) 'f') in
    Plog.recycle_to t ~end_off:filler.Plog.end_off ~next_seq:(filler.Plog.seq + 1);
    let doomed = Plog.append t (payload "doomed!!") in
    let straddler = Plog.append t (payload "straddler") in
    let after = Plog.append t (payload "after") in
    check Alcotest.int
      (Printf.sprintf "k=%d: header starts k bytes before the ring end" k)
      (dcap - k)
      (straddler.Plog.end_off - Plog.record_overhead - Bytes.length straddler.Plog.payload);
    Nvm.inject_fault nvm (Nvm.Bit_rot { off = payload_byte_off t doomed 3; bit = 2 });
    Nvm.crash nvm;
    let _, scan = Plog.attach_scan nvm ~base:0 ~size in
    check Alcotest.(list int)
      (Printf.sprintf "k=%d: resync finds the straddling record" k)
      [ straddler.Plog.seq; after.Plog.seq ]
      (List.map (fun (r : Plog.record) -> r.Plog.seq) scan.Plog.records);
    check Alcotest.int (Printf.sprintf "k=%d: one record lost" k) 1 scan.Plog.corrupted_records
  done

let test_last_record_corruption_is_torn_tail () =
  (* Damage to the LAST sealed record is indistinguishable from a torn
     tail: it is discarded like one, without being counted as corruption. *)
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  let r1 = Plog.append t (payload "first") in
  let r2 = Plog.append t (payload "last, to be damaged") in
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = payload_byte_off t r2 0; bit = 1 });
  Nvm.crash nvm;
  let _, scan = Plog.attach_scan nvm ~base:0 ~size:4096 in
  check Alcotest.(list int) "prefix survives" [ r1.Plog.seq ]
    (List.map (fun (r : Plog.record) -> r.Plog.seq) scan.Plog.records);
  check Alcotest.int "counted as torn tail, not corruption" 0 scan.Plog.corrupted_records

let test_poisoned_record_quarantined () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  (* A >64-byte first record keeps the second record clear of line 1. *)
  let r1 = Plog.append t (Bytes.make 100 'a') in
  let r2 = Plog.append t (payload "second") in
  let r3 = Plog.append t (payload "third") in
  ignore r1;
  Nvm.crash nvm;
  Nvm.inject_fault nvm (Nvm.Poison { line = 1 });
  let _, scan = Plog.attach_scan nvm ~base:0 ~size:4096 in
  check Alcotest.(list int) "scan survives a poisoned record"
    [ r2.Plog.seq; r3.Plog.seq ]
    (List.map (fun (r : Plog.record) -> r.Plog.seq) scan.Plog.records);
  check Alcotest.int "poisoned record counted" 1 scan.Plog.corrupted_records

let test_header_loss_reformats_with_salvaged_seq () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  ignore (Plog.append t (payload "zero"));
  ignore (Plog.append t (payload "one"));
  (* Flip a bit inside the sealed header: its CRC check must fail. *)
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = 8; bit = 0 });
  Nvm.crash nvm;
  Alcotest.check_raises "plain attach refuses the lost header"
    (Invalid_argument "Plog.attach: bad magic") (fun () ->
      ignore (Plog.attach nvm ~base:0 ~size:4096));
  let t', scan = Plog.attach_scan nvm ~base:0 ~size:4096 in
  check Alcotest.bool "header loss detected" true scan.Plog.header_lost;
  check Alcotest.int "every record lost" 0 (List.length scan.Plog.records);
  (* The salvaged sequence number must leap past every frame still readable
     in the ring, or a later lap could resurrect them. *)
  check Alcotest.int "salvaged next_seq past all stale frames" 2 (Plog.next_seq t');
  (* The reformatted ring is usable again. *)
  let r = Plog.append t' (payload "fresh start") in
  check Alcotest.int "fresh record continues the sequence" 2 r.Plog.seq

let prop_random_appends_survive =
  QCheck2.Test.make ~name:"plog: every sealed record survives any crash" ~count:150
    QCheck2.Gen.(list_size (int_range 1 20) (string_size (int_range 0 80)))
    (fun payloads ->
      let nvm = device () in
      let t = Plog.format nvm ~base:0 ~size:8192 in
      let ok = ref true in
      List.iter
        (fun p ->
          if Plog.free_space t >= Plog.record_overhead + String.length p then
            ignore (Plog.append t (Bytes.of_string p)))
        payloads;
      Nvm.crash nvm;
      let _, records = Plog.attach nvm ~base:0 ~size:8192 in
      let expected =
        let rec go space acc = function
          | [] -> List.rev acc
          | p :: rest ->
            if space >= Plog.record_overhead + String.length p then
              go (space - Plog.record_overhead - String.length p) (p :: acc) rest
            else go space acc rest
        in
        go (8192 - Plog.header_size) [] payloads
      in
      if List.length records <> List.length expected then ok := false
      else
        List.iter2
          (fun (r : Plog.record) p -> if Bytes.to_string r.Plog.payload <> p then ok := false)
          records expected;
      !ok)

let prop_wraparound_roundtrip =
  (* Push several laps of traffic through a tiny ring, recycling as
     Reproduce would, so records straddle the wrap point at random
     alignments.  After a crash, attach must return exactly the unrecycled
     suffix, in order, bytes intact. *)
  QCheck2.Test.make ~name:"plog: records straddling the wrap point round-trip"
    ~count:150
    QCheck2.Gen.(tup2 (list_size (int_range 1 40) (int_range 0 120)) (int_range 1 6))
    (fun (sizes, keep) ->
      let nvm = device () in
      let size = 1024 in
      let t = Plog.format nvm ~base:0 ~size in
      let live = Queue.create () in
      List.iteri
        (fun i len ->
          let p = Bytes.init len (fun j -> Char.chr ((i + j) mod 256)) in
          while
            Queue.length live > 0
            && (Plog.free_space t < Plog.record_overhead + len
               || Queue.length live > keep)
          do
            let seq, _, end_off = Queue.pop live in
            Plog.recycle_to t ~end_off ~next_seq:(seq + 1)
          done;
          let r = Plog.append t p in
          Queue.push (r.Plog.seq, p, r.Plog.end_off) live)
        sizes;
      Nvm.crash nvm;
      let _, records = Plog.attach nvm ~base:0 ~size in
      let expected = List.of_seq (Queue.to_seq live) in
      List.length records = List.length expected
      && List.for_all2
           (fun (r : Plog.record) (seq, p, _) ->
             r.Plog.seq = seq && Bytes.equal r.Plog.payload p)
           records expected)

(* [append] stores the header and the payload straight into the ring.  At
   every distance from the ring end — header split, payload split, or
   neither — the ring must hold the bytes and CRC of the old staged frame
   ([len | seq | crc | payload] built in one buffer, then stored in two
   pieces at the wrap), with the same dirty lines in the same order (a
   seeded evicting crash keeps the same survivors), and [attach] must
   scan the record back. *)
let test_straddling_append_matches_staged_frame () =
  let size = 512 in
  let dcap = size - Plog.header_size in
  let p = Bytes.init 40 (fun i -> Char.chr (65 + i)) in
  let len = Bytes.length p and total = Plog.record_overhead + Bytes.length p in
  let at_tail d nvm =
    let t = Plog.format nvm ~base:0 ~size in
    let r = Plog.append t (Bytes.make (dcap - d - Plog.record_overhead) 'f') in
    Plog.recycle_to t ~end_off:r.Plog.end_off ~next_seq:1;
    t
  in
  for d = 1 to total + 8 do
    let nvm = device () and staged = device () in
    let t = at_tail d nvm in
    ignore (at_tail d staged);
    let r = Plog.append ~persist:false t p in
    let frame = Bytes.create total in
    Bytes.set_int64_le frame 0 (Int64.of_int len);
    Bytes.set_int64_le frame 8 1L;
    let crc = Checksum.crc32 ~init:(Checksum.crc32 frame 0 16) p 0 len in
    Bytes.set_int64_le frame 16 (Int64.of_int32 crc);
    Bytes.blit p 0 frame Plog.record_overhead len;
    let s = dcap - d and first = min d total in
    Nvm.store_bytes staged (Plog.header_size + s) (Bytes.sub frame 0 first);
    if first < total then
      Nvm.store_bytes staged Plog.header_size (Bytes.sub frame first (total - first));
    let what = Printf.sprintf "%d bytes before the ring end" d in
    check Alcotest.int (what ^ ": seq") 1 r.Plog.seq;
    check Alcotest.bool (what ^ ": same ring bytes and CRC") true
      (Bytes.equal (Nvm.load_bytes nvm 0 size) (Nvm.load_bytes staged 0 size));
    check Alcotest.int (what ^ ": same dirty lines") (Nvm.dirty_lines staged)
      (Nvm.dirty_lines nvm);
    Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create d) nvm;
    Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create d) staged;
    check Alcotest.(list int) (what ^ ": same eviction survivors")
      (Nvm.last_crash_survivors staged) (Nvm.last_crash_survivors nvm);
    let sealed = device () in
    ignore (Plog.append (at_tail d sealed) p);
    Nvm.crash sealed;
    match Plog.attach sealed ~base:0 ~size with
    | _, [ r ] ->
      check Alcotest.int (what ^ ": attach seq") 1 r.Plog.seq;
      check Alcotest.bytes (what ^ ": attach payload") p r.Plog.payload
    | _, records -> Alcotest.failf "%s: attach found %d records" what (List.length records)
  done

(* Words allocated by [f ()] on the minor heap.  [Gc.minor_words] reads
   the allocation pointer itself; [Gc.counters] only advances at a minor
   collection, so over a short loop it misses most of what was allocated.
   Every buffer the allocation guards (here and in [Test_replica]) look
   for is small enough to be allocated on the minor heap. *)
let allocated f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* [append] stores the caller's payload into the ring without staging a
   [header | payload] frame: a 512-byte record must not allocate a
   record-sized buffer (68 words).  What it does allocate is mostly the
   dirty-line set's entries for the record's nine lines. *)
let test_append_allocation_guard () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:65536 in
  let p = Bytes.make 512 'r' in
  ignore (Plog.append t p);
  let per_append =
    allocated (fun () ->
        for _ = 1 to 100 do
          ignore (Plog.append t p)
        done)
    /. 100.
  in
  if per_append >= 100. then
    Alcotest.failf "%.1f words allocated per append (limit 100)" per_append

let suite =
  [
    Alcotest.test_case "append then attach" `Quick test_append_attach;
    Alcotest.test_case "torn record discarded" `Quick test_torn_record_discarded;
    Alcotest.test_case "stale records not resurrected" `Quick test_stale_records_not_resurrected;
    Alcotest.test_case "ring wraparound" `Quick test_wraparound;
    Alcotest.test_case "free-space accounting" `Quick test_free_space_accounting;
    Alcotest.test_case "append without space rejected" `Quick test_append_without_space_rejected;
    Alcotest.test_case "attach requires formatted region" `Quick test_attach_bad_magic;
    Alcotest.test_case "crash before recycle re-exposes records" `Quick
      test_crash_before_header_persist_keeps_old_head;
    Alcotest.test_case "mid-ring corruption quarantined" `Quick
      test_midring_corruption_quarantined;
    Alcotest.test_case "resync across the ring end" `Quick test_resync_across_ring_end;
    Alcotest.test_case "last-record damage treated as torn tail" `Quick
      test_last_record_corruption_is_torn_tail;
    Alcotest.test_case "poisoned record quarantined" `Quick test_poisoned_record_quarantined;
    Alcotest.test_case "header loss reformats with salvaged seq" `Quick
      test_header_loss_reformats_with_salvaged_seq;
    QCheck_alcotest.to_alcotest prop_random_appends_survive;
    QCheck_alcotest.to_alcotest prop_wraparound_roundtrip;
    Alcotest.test_case "straddling append stores the staged frame" `Quick
      test_straddling_append_matches_staged_frame;
    Alcotest.test_case "append allocates no frame" `Quick test_append_allocation_guard;
  ]
