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

(* One [Plog.append] of the whole of [p], as the record it wrote. *)
let append ?persist t p =
  let seq = Plog.next_seq t in
  Plog.append ?persist t p ~pos:0 ~len:(Bytes.length p);
  { Plog.seq; payload = p; end_off = Plog.tail_off t }

(* Re-open a ring whose header must have survived: its surviving records. *)
let attach nvm ~base ~size =
  let t, scan = Plog.attach_scan nvm ~base ~size in
  check Alcotest.bool "header intact" false scan.Plog.header_lost;
  (t, scan.Plog.records)

let test_append_attach () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  let r1 = append t (payload "first") in
  let r2 = append t (payload "second") in
  check Alcotest.int "seq 0" 0 r1.Plog.seq;
  check Alcotest.int "seq 1" 1 r2.Plog.seq;
  Nvm.crash nvm;
  let _, records = attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "both records survive" 2 (List.length records);
  check Alcotest.bytes "payload 1" (payload "first") (List.nth records 0).Plog.payload;
  check Alcotest.bytes "payload 2" (payload "second") (List.nth records 1).Plog.payload

let test_torn_record_discarded () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  ignore (append t (payload "good"));
  (* Write a record's bytes without persisting: only a random subset of its
     lines may survive the crash — a torn record. *)
  let start_tail = Plog.tail_off t in
  ignore start_tail;
  let frame = Bytes.make 40 'X' in
  Nvm.store_bytes nvm (64 + (Plog.tail_off t mod 4032)) frame;
  Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create 3) nvm;
  let _, records = attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "only the sealed record survives" 1 (List.length records)

let test_stale_records_not_resurrected () =
  (* After recycling, old bytes remain in the ring; a re-attach must not
     mistake them for live records (sequence numbers prevent it). *)
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  let r1 = append t (payload "will be recycled") in
  let r2 = append t (payload "also recycled") in
  ignore r1;
  Plog.recycle_to t ~end_off:r2.Plog.end_off ~next_seq:2;
  Nvm.crash nvm;
  let t', records = attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "no stale records" 0 (List.length records);
  check Alcotest.int "next seq continues" 2 (Plog.next_seq t')

let test_wraparound () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:512 in
  (* Repeatedly append and recycle so records straddle the ring boundary. *)
  for i = 0 to 30 do
    let p = payload (Printf.sprintf "record-%02d-%s" i (String.make 40 'p')) in
    let r = append t p in
    Plog.recycle_to t ~end_off:r.Plog.end_off ~next_seq:(r.Plog.seq + 1)
  done;
  let final = append t (payload "final") in
  Nvm.crash nvm;
  let _, records = attach nvm ~base:0 ~size:512 in
  check Alcotest.int "final record recovered after many wraps" 1 (List.length records);
  check Alcotest.int "final seq" final.Plog.seq (List.nth records 0).Plog.seq;
  check Alcotest.bytes "final payload" (payload "final") (List.nth records 0).Plog.payload

let test_free_space_accounting () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:1024 in
  let cap = Plog.data_capacity t in
  check Alcotest.int "initially empty" cap (Plog.free_space t);
  let r = append t (payload "0123456789") in
  check Alcotest.int "used = overhead + payload" (Plog.record_overhead + 10) (Plog.used_space t);
  Plog.recycle_to t ~end_off:r.Plog.end_off ~next_seq:1;
  check Alcotest.int "recycle frees space" cap (Plog.free_space t)

let test_append_without_space_rejected () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:256 in
  Alcotest.check_raises "oversized append rejected" (Invalid_argument "Plog.append: no space")
    (fun () -> ignore (append t (Bytes.make 4096 'x')))

let test_crash_before_header_persist_keeps_old_head () =
  (* recycle_to persists the header; a crash right after append but before
     any recycle must re-expose all records. *)
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  for i = 1 to 5 do
    ignore (append t (payload (string_of_int i)))
  done;
  Nvm.crash nvm;
  let _, records = attach nvm ~base:0 ~size:4096 in
  check Alcotest.int "all five records re-exposed" 5 (List.length records)

(* --------------------------- media faults ----------------------------- *)

(* Device byte offset of payload byte [j] of a record in a base-0 ring. *)
let payload_byte_off t (r : Plog.record) j =
  let start = r.Plog.end_off - Plog.record_overhead - Bytes.length r.Plog.payload in
  Plog.header_size + ((start + 16 + j) mod Plog.data_capacity t)

let test_midring_corruption_quarantined () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:4096 in
  let r1 = append t (payload "the doomed record") in
  let r2 = append t (payload "second") in
  let r3 = append t (payload "third") in
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
    let filler = append t (Bytes.make (dcap - k - 56) 'f') in
    Plog.recycle_to t ~end_off:filler.Plog.end_off ~next_seq:(filler.Plog.seq + 1);
    let doomed = append t (payload "doomed!!") in
    let straddler = append t (payload "straddler") in
    let after = append t (payload "after") in
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
  let r1 = append t (payload "first") in
  let r2 = append t (payload "last, to be damaged") in
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
  let r1 = append t (Bytes.make 100 'a') in
  let r2 = append t (payload "second") in
  let r3 = append t (payload "third") in
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
  ignore (append t (payload "zero"));
  ignore (append t (payload "one"));
  (* Flip a bit inside the sealed header: its CRC check must fail. *)
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = 8; bit = 0 });
  Nvm.crash nvm;
  let t', scan = Plog.attach_scan nvm ~base:0 ~size:4096 in
  check Alcotest.bool "header loss detected" true scan.Plog.header_lost;
  check Alcotest.int "every record lost" 0 (List.length scan.Plog.records);
  (* The salvaged sequence number must leap past every frame still readable
     in the ring, or a later lap could resurrect them. *)
  check Alcotest.int "salvaged next_seq past all stale frames" 2 (Plog.next_seq t');
  (* The reformatted ring is usable again. *)
  let r = append t' (payload "fresh start") in
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
            ignore (append t (Bytes.of_string p)))
        payloads;
      Nvm.crash nvm;
      let _, records = attach nvm ~base:0 ~size:8192 in
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
          let r = append t p in
          Queue.push (r.Plog.seq, p, r.Plog.end_off) live)
        sizes;
      Nvm.crash nvm;
      let _, records = attach nvm ~base:0 ~size in
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
    let r = append t (Bytes.make (dcap - d - Plog.record_overhead) 'f') in
    Plog.recycle_to t ~end_off:r.Plog.end_off ~next_seq:1;
    t
  in
  for d = 1 to total + 8 do
    let nvm = device () and staged = device () in
    let t = at_tail d nvm in
    ignore (at_tail d staged);
    let r = append ~persist:false t p in
    let frame = Bytes.create total in
    Bytes.set_int64_le frame 0 (Int64.of_int len);
    Bytes.set_int64_le frame 8 1L;
    let crc = Checksum.chain (Checksum.crc32 frame 0 16) p 0 len in
    Bytes.set_int64_le frame 16 (Int64.of_int32 (Int32.of_int crc));
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
    ignore (append (at_tail d sealed) p);
    Nvm.crash sealed;
    match attach sealed ~base:0 ~size with
    | _, [ r ] ->
      check Alcotest.int (what ^ ": attach seq") 1 r.Plog.seq;
      check Alcotest.bytes (what ^ ": attach payload") p r.Plog.payload
    | _, records -> Alcotest.failf "%s: attach found %d records" what (List.length records)
  done

(* Words allocated by [f ()] on either heap, for the allocation guards
   here, in [Test_replica] and in [Test_shadow].  On OCaml 5.1
   [Gc.counters] only advances at a minor collection, and [Gc.minor_words]
   misses a buffer too large for the minor heap (a 4 KiB page goes
   straight to the major heap).  So each reading first empties the minor
   heap; then minor + major - promoted counts every word once. *)
let allocated f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  f ();
  words () -. before

(* [append] stores the caller's payload into the ring without staging a
   [header | payload] frame: a 512-byte record must not allocate a
   record-sized buffer (68 words).  What it does allocate is mostly the
   dirty-line set's entries for the record's nine lines. *)
let test_append_allocation_guard () =
  let nvm = device () in
  let t = Plog.format nvm ~base:0 ~size:65536 in
  let p = Bytes.make 512 'r' in
  Plog.append t p ~pos:0 ~len:512;
  let per_append =
    allocated (fun () ->
        for _ = 1 to 100 do
          Plog.append t p ~pos:0 ~len:512
        done)
    /. 100.
  in
  if per_append >= 100. then
    Alcotest.failf "%.1f words allocated per append (limit 100)" per_append

(* A payload inside a larger buffer — a replication frame — is appended
   where it lies: the ring holds the bytes, CRC and dirty lines of the
   same record appended from its own copy, and [attach] reads it back.  A
   range outside the buffer is refused before anything is stored. *)
let test_append_range () =
  let frame = Bytes.init 100 (fun i -> Char.chr (i + 1)) in
  let pos = 41 and len = 59 in
  let ranged = device () and copied = device () in
  let t = Plog.format ranged ~base:0 ~size:4096 in
  let c = Plog.format copied ~base:0 ~size:4096 in
  Plog.append t frame ~pos ~len;
  ignore (append c (Bytes.sub frame pos len));
  check Alcotest.int "same tail" (Plog.tail_off c) (Plog.tail_off t);
  check Alcotest.int "same next seq" (Plog.next_seq c) (Plog.next_seq t);
  check Alcotest.bool "same ring bytes" true
    (Bytes.equal (Nvm.load_bytes ranged 0 4096) (Nvm.load_bytes copied 0 4096));
  check Alcotest.int "same dirty lines" (Nvm.dirty_lines copied) (Nvm.dirty_lines ranged);
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "range %d+%d refused" pos len)
        (Invalid_argument "Plog.append: bad range")
        (fun () -> Plog.append t frame ~pos ~len))
    [ (-1, 4); (0, -1); (60, 41); (101, 0) ];
  check Alcotest.int "nothing appended by a refused range" (Plog.tail_off c) (Plog.tail_off t);
  Nvm.crash ranged;
  match attach ranged ~base:0 ~size:4096 with
  | _, [ r ] ->
    check Alcotest.int "seq" 0 r.Plog.seq;
    check Alcotest.bytes "payload" (Bytes.sub frame pos len) r.Plog.payload
  | _, records -> Alcotest.failf "attach found %d records" (List.length records)

(* ------------------------ differential ring scan ------------------------ *)

(* The ring scan as it read the device before it read one copy of the data
   area: every frame loaded through [read_wrapped], [resync] prechecking
   each offset's fields from an area copy or, when a poisoned line fails
   that copy, in place, and a salvage loop of its own.  Kept here as the
   reference {!Plog.attach_scan} must agree with. *)
module Ref = struct
  type ring = { nvm : Nvm.t; db : int; dcap : int; head : int }

  let read_wrapped r off len =
    let s = off mod r.dcap in
    if s + len <= r.dcap then Nvm.load_bytes r.nvm (r.db + s) len
    else begin
      let first = r.dcap - s in
      let b = Bytes.create len in
      Bytes.blit (Nvm.load_bytes r.nvm (r.db + s) first) 0 b 0 first;
      Bytes.blit (Nvm.load_bytes r.nvm r.db (len - first)) 0 b first (len - first);
      b
    end

  let frame_crc frame ~seq payload ~len =
    Bytes.set_int64_le frame 0 (Int64.of_int len);
    Bytes.set_int64_le frame 8 (Int64.of_int seq);
    Checksum.chain (Checksum.crc32 frame 0 16) payload 0 len

  let stored_crc frame = Int64.to_int (Bytes.get_int64_le frame 16) land 0xffffffff

  let max_resync_gap = 64

  let fields_in_range r ~scanned ~len ~seq ~min_seq =
    len >= 0
    && scanned + Plog.record_overhead + len <= r.dcap
    && seq >= min_seq
    && seq <= min_seq + max_resync_gap

  let probe_frame r ~off ~min_seq =
    let scanned = off - r.head in
    if scanned + Plog.record_overhead > r.dcap then None
    else
      match read_wrapped r off Plog.record_overhead with
      | exception Nvm.Media_error _ -> None
      | frame ->
        let len = Int64.to_int (Bytes.get_int64_le frame 0) in
        let seq = Int64.to_int (Bytes.get_int64_le frame 8) in
        let crc = stored_crc frame in
        if not (fields_in_range r ~scanned ~len ~seq ~min_seq) then None
        else begin
          match read_wrapped r (off + Plog.record_overhead) len with
          | exception Nvm.Media_error _ -> None
          | payload ->
            if frame_crc frame ~seq payload ~len <> crc then None
            else Some { Plog.seq; payload; end_off = off + Plog.record_overhead + len }
        end

  let fields_plausible r fields ~s ~scanned ~min_seq =
    match Nvm.load_into r.nvm (r.db + s) fields with
    | exception Nvm.Media_error _ -> false
    | () ->
      let len = Int64.to_int (Bytes.get_int64_le fields 0) in
      let seq = Int64.to_int (Bytes.get_int64_le fields 8) in
      fields_in_range r ~scanned ~len ~seq ~min_seq

  let resync r ~from ~min_seq =
    let limit = r.head + r.dcap - Plog.record_overhead in
    let fields = Bytes.create 16 in
    let area = try Some (Nvm.load_bytes r.nvm r.db r.dcap) with Nvm.Media_error _ -> None in
    let plausible s ~scanned =
      match area with
      | None -> fields_plausible r fields ~s ~scanned ~min_seq
      | Some a ->
        let len = Int64.to_int (Bytes.get_int64_le a s) in
        let seq = Int64.to_int (Bytes.get_int64_le a (s + 8)) in
        fields_in_range r ~scanned ~len ~seq ~min_seq
    in
    let rec go off s =
      if off > limit then None
      else if s + 16 <= r.dcap && not (plausible s ~scanned:(off - r.head)) then go (off + 1) (s + 1)
      else
        match probe_frame r ~off ~min_seq with
        | Some rc -> Some (off, rc)
        | None -> go (off + 1) (if s + 1 = r.dcap then 0 else s + 1)
    in
    go from (from mod r.dcap)

  let lines_of_range r ~lo ~hi acc =
    let ls = Nvm.line_size r.nvm in
    let add acc addr_lo addr_hi =
      let rec go l acc = if l * ls >= addr_hi then acc else go (l + 1) (l :: acc) in
      go (addr_lo / ls) acc
    in
    let len = hi - lo in
    if len <= 0 then acc
    else begin
      let s = lo mod r.dcap in
      if s + len <= r.dcap then add acc (r.db + s) (r.db + s + len)
      else
        let first = r.dcap - s in
        add (add acc (r.db + s) (r.db + s + first)) r.db (r.db + len - first)
    end

  let salvage_next_seq r =
    let best = ref 0 in
    for off = 0 to r.dcap - Plog.record_overhead do
      match read_wrapped r off Plog.record_overhead with
      | exception Nvm.Media_error _ -> ()
      | frame ->
        let len = Int64.to_int (Bytes.get_int64_le frame 0) in
        let seq = Int64.to_int (Bytes.get_int64_le frame 8) in
        let crc = stored_crc frame in
        if len >= 0 && len <= r.dcap - Plog.record_overhead && seq > !best then begin
          match read_wrapped r (off + Plog.record_overhead) len with
          | exception Nvm.Media_error _ -> ()
          | payload -> if frame_crc frame ~seq payload ~len = crc then best := seq
        end
    done;
    !best + 1

  (* The scan's verdicts: records, corrupted records, quarantined lines,
     header lost, next seq and tail offset.  Reads only. *)
  let scan nvm ~base ~size =
    let r0 = { nvm; db = base + Plog.header_size; dcap = size - Plog.header_size; head = 0 } in
    match Dudetm_log.Sealed.Image.read nvm ~off:base ~words:3 with
    | Some [| m; head; head_seq |] when m = 0x44554445504C4F47L ->
      let r = { r0 with head = Int64.to_int head } in
      let rec walk tail seq records corrupted qlines =
        match probe_frame r ~off:tail ~min_seq:seq with
        | Some rc -> walk rc.Plog.end_off (rc.Plog.seq + 1) (rc :: records) corrupted qlines
        | None -> (
          match resync r ~from:(tail + 1) ~min_seq:(seq + 1) with
          | None ->
            let qlines = List.length (List.sort_uniq compare qlines) in
            (List.rev records, corrupted, qlines, false, seq, tail)
          | Some (at, rc) ->
            walk rc.Plog.end_off (rc.Plog.seq + 1) (rc :: records)
              (corrupted + (rc.Plog.seq - seq))
              (lines_of_range r ~lo:tail ~hi:at qlines))
      in
      walk r.head (Int64.to_int head_seq) [] 0 []
    | _ -> ([], 1, 0, true, salvage_next_seq r0, 0)
end

(* One damage to a crashed ring, after its appends and crash.  A planted
   frame's length is [dcap - 24 + k] for [k <= 1] (the salvage bound and
   one past it) or [k - 2]; its seq is the next one plus [q] for [q <
   1000] (the resync window's edges among them), else [q] itself. *)
type damage =
  | Rot of int * int  (** flip bit [b] of data-area byte [pos] *)
  | Poison_at of int  (** poison the line under data-area byte [pos]; -1 is the last *)
  | Plant of int * int * int  (** seal a frame at slot [s], length kind [k], seq kind [q] *)
  | Plant_tail of int * int
      (** seal the next record at the tail, [d] bytes longer than fits, seq kind [q] *)
  | Lose_header of bool  (** rot the header, or poison its line *)

let gen_damage =
  QCheck2.Gen.(
    let seq_kind = oneof [ int_range (-2) 3; int_range 62 67; int_range 1000 1100 ] in
    frequency
      [
        (3, map2 (fun p b -> Rot (p, b)) (int_bound 4095) (int_bound 7));
        (3, map (fun p -> Poison_at p) (int_bound 4095));
        (2, oneofl [ Poison_at 0; Poison_at (-1) ]);
        ( 4,
          map3
            (fun s k q -> Plant (s, k, q))
            (int_bound 4095)
            (frequency [ (3, int_range (-1) 1); (2, int_range 2 42) ])
            seq_kind );
        (2, map2 (fun d q -> Plant_tail (d, q)) (int_range (-1) 1) seq_kind);
        (2, map (fun b -> Lose_header b) bool);
      ])

(* Store [b] at monotone data-area offset [off], wrapped, and persist it. *)
let store_wrapped nvm ~db ~dcap off b =
  Bytes.iteri (fun i _ -> Nvm.store_sub nvm (db + ((off + i) mod dcap)) b ~pos:i ~len:1) b;
  Nvm.persist nvm ~off:0 ~len:(Nvm.size nvm)

(* Seal a [len]-byte frame with [seq] at monotone offset [off]: its payload
   is whatever the ring holds there (for [len = dcap - 23], its own first
   byte). *)
let plant nvm ~db ~dcap off ~len ~seq =
  let fields = Bytes.create 16 in
  Bytes.set_int64_le fields 0 (Int64.of_int len);
  Bytes.set_int64_le fields 8 (Int64.of_int seq);
  store_wrapped nvm ~db ~dcap off fields;
  let payload =
    Bytes.init len (fun i -> Bytes.get (Nvm.load_bytes nvm (db + ((off + 24 + i) mod dcap)) 1) 0)
  in
  let crc = Bytes.create 8 in
  Checksum.set_slot crc 0 (Checksum.chain (Checksum.crc32 fields 0 16) payload 0 len);
  store_wrapped nvm ~db ~dcap (off + 16) crc

(* Random rings — several laps of appends and recycles, a torn tail left by
   an evicting crash, then bit rot, poisoned clean lines (the first and
   last lines of the area among them), frames planted at the length and
   seq bounds, and a lost header — scanned by [Plog.attach_scan] and by
   the reference reader: every verdict agrees. *)
let prop_scan_matches_reference =
  QCheck2.Test.make ~name:"plog: one-copy scan gives the direct reader's verdicts" ~count:1000
    QCheck2.Gen.(
      tup4
        (pair (int_bound 24) (int_range 40 900))
        (pair (list_size (int_range 1 40) (int_range 0 150)) (int_range 1 6))
        (pair (int_bound 3) small_nat)
        (list_size (int_bound 5) gen_damage))
    (fun ((bw, dcap), (sizes, keep), (torn, seed), damage) ->
      let nvm = device () in
      let base = 8 * bw and size = Plog.header_size + dcap in
      let db = base + Plog.header_size and ls = Nvm.line_size nvm in
      let t = Plog.format nvm ~base ~size in
      let live = Queue.create () in
      let push i len ~persist =
        (* Mostly zero payloads, so the zeroes the scan's copy holds for a
           poisoned line can look intact. *)
        let p =
          Bytes.init len (fun j ->
              if (i + j) mod 37 = 0 then Char.chr (1 + ((i * j) mod 250)) else '\000')
        in
        while
          Queue.length live > 0
          && (Plog.free_space t < Plog.record_overhead + len || Queue.length live > keep)
        do
          let seq, end_off = Queue.pop live in
          Plog.recycle_to t ~end_off ~next_seq:(seq + 1)
        done;
        if Plog.free_space t >= Plog.record_overhead + len then begin
          let r = append ~persist t p in
          Queue.push (r.Plog.seq, r.Plog.end_off) live
        end
      in
      List.iteri (fun i len -> push i len ~persist:true) sizes;
      for i = 1 to torn do
        push (100 + i) (17 * i) ~persist:false
      done;
      Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create seed) nvm;
      let line pos = (db + (pos mod dcap)) / ls in
      let seq q = if q < 1000 then Plog.next_seq t + q else q in
      List.iter
        (function
          | Rot (pos, bit) -> Nvm.inject_fault nvm (Nvm.Bit_rot { off = db + (pos mod dcap); bit })
          | Poison_at pos ->
            Nvm.inject_fault nvm (Nvm.Poison { line = line (if pos < 0 then dcap - 1 else pos) })
          | Plant (s, k, q) ->
            let len = if k <= 1 then dcap - Plog.record_overhead + k else k - 2 in
            if len >= 0 then plant nvm ~db ~dcap (s mod dcap) ~len ~seq:(seq q)
          | Plant_tail (d, q) ->
            let len = Plog.free_space t - Plog.record_overhead + d in
            if len >= 0 then plant nvm ~db ~dcap (Plog.tail_off t) ~len ~seq:(seq q)
          | Lose_header rot ->
            Nvm.inject_fault nvm
              (if rot then Nvm.Bit_rot { off = base + 8; bit = 0 }
               else Nvm.Poison { line = base / ls }))
        (* Frames are planted first: planting reads the ring. *)
        (let plants, faults =
           List.partition (function Plant _ | Plant_tail _ -> true | _ -> false) damage
         in
         plants @ faults);
      let expected = Ref.scan nvm ~base ~size in
      let t', scan = Plog.attach_scan nvm ~base ~size in
      let got =
        ( scan.Plog.records,
          scan.Plog.corrupted_records,
          scan.Plog.quarantined_lines,
          scan.Plog.header_lost,
          Plog.next_seq t',
          Plog.tail_off t' )
      in
      let show (records, corrupted, qlines, lost, next_seq, tail) =
        Printf.sprintf
          "records [%s], corrupted %d, quarantined %d, header lost %b, next seq %d, tail %d"
          (String.concat "; "
             (List.map
                (fun (r : Plog.record) ->
                  Printf.sprintf "%d:%d@%d" r.Plog.seq (Bytes.length r.Plog.payload) r.Plog.end_off)
                records))
          corrupted qlines lost next_seq tail
      in
      if got <> expected then
        QCheck2.Test.fail_reportf "attach_scan: %s\nreference:   %s" (show got) (show expected);
      true)

let suite =
  [
    Alcotest.test_case "append of a byte range" `Quick test_append_range;
    Alcotest.test_case "append then attach" `Quick test_append_attach;
    Alcotest.test_case "torn record discarded" `Quick test_torn_record_discarded;
    Alcotest.test_case "stale records not resurrected" `Quick test_stale_records_not_resurrected;
    Alcotest.test_case "ring wraparound" `Quick test_wraparound;
    Alcotest.test_case "free-space accounting" `Quick test_free_space_accounting;
    Alcotest.test_case "append without space rejected" `Quick test_append_without_space_rejected;
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
    QCheck_alcotest.to_alcotest prop_scan_matches_reference;
    Alcotest.test_case "straddling append stores the staged frame" `Quick
      test_straddling_append_matches_staged_frame;
    Alcotest.test_case "append allocates no frame" `Quick test_append_allocation_guard;
  ]
