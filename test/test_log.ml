(* Redo-log machinery: entries, volatile ring, checksums, combination. *)

module Log_entry = Dudetm_log.Log_entry
module Vlog = Dudetm_log.Vlog
module Checksum = Dudetm_log.Checksum
module Combine = Dudetm_log.Combine
module Lz = Dudetm_log.Lz
module Sched = Dudetm_sim.Sched

let check = Alcotest.check

let entry_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun a v -> Log_entry.Write { addr = a * 8; value = Int64.of_int v })
          (int_range 0 100000) (int_range (-1000000) 1000000);
        map2 (fun o l -> Log_entry.Alloc { off = o * 8; len = 1 + l }) (int_range 0 10000)
          (int_range 0 500);
        map2 (fun o l -> Log_entry.Free { off = o * 8; len = 1 + l }) (int_range 0 10000)
          (int_range 0 500);
        map (fun tid -> Log_entry.Tx_end { tid = 1 + tid }) (int_range 0 1000000);
      ])

let prop_encode_roundtrip =
  QCheck2.Test.make ~name:"log entries: encode/decode roundtrip" ~count:300
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 100) entry_gen)
    (fun entries ->
      Log_entry.decode_list (Log_entry.encode_list entries) = entries)

let test_encode_sizes () =
  let w = Log_entry.Write { addr = 8; value = 1L } in
  let e = Log_entry.Tx_end { tid = 1 } in
  check Alcotest.int "write entry is 17 bytes" 17 (Log_entry.encoded_size w);
  check Alcotest.int "end mark is 9 bytes" 9 (Log_entry.encoded_size e);
  check Alcotest.int "encode_list concatenates" 26
    (Bytes.length (Log_entry.encode_list [ w; e ]))

let test_decode_rejects_garbage () =
  Alcotest.check_raises "bad tag rejected" (Invalid_argument "Log_entry.decode_list: bad tag 'Z'")
    (fun () -> ignore (Log_entry.decode_list (Bytes.of_string "Zxxxxxxxxxxxxxxxx")));
  Alcotest.check_raises "truncation rejected"
    (Invalid_argument "Log_entry.decode_list: truncated Write") (fun () ->
      ignore (Log_entry.decode_list (Bytes.of_string "Wshort")))

let test_tids_extraction () =
  let entries =
    [
      Log_entry.Write { addr = 0; value = 1L };
      Log_entry.Tx_end { tid = 5 };
      Log_entry.Write { addr = 8; value = 2L };
      Log_entry.Tx_end { tid = 6 };
    ]
  in
  check Alcotest.(list int) "tids in order" [ 5; 6 ] (Log_entry.tids entries)

(* A record payload is the flag byte and the entries in one buffer; the
   decoder reads a plain body in place.  The framing is the one recovery
   has always read: flag, then [encode_list]'s bytes or their LZ
   compression. *)
let prop_payload_roundtrip =
  QCheck2.Test.make ~name:"log payload: framing unchanged, decoded in place" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 100) entry_gen) bool)
    (fun (entries, compress) ->
      let payload = Log_entry.encode_payload ~compress entries in
      let body = Log_entry.encode_list entries in
      let comp = Lz.compress body in
      let expected =
        if compress && Bytes.length comp < Bytes.length body then
          Bytes.cat (Bytes.of_string "C") comp
        else Bytes.cat (Bytes.of_string "P") body
      in
      Bytes.equal payload expected && Log_entry.decode_payload payload = entries)

let test_payload_decode_in_place () =
  (* A compressible run: the LZ flag is taken and decodes back. *)
  let entries =
    List.concat
      (List.init 40 (fun i ->
           [
             Log_entry.Write { addr = 8 * (i mod 4); value = 7L };
             Log_entry.Tx_end { tid = i + 1 };
           ]))
  in
  let lz = Log_entry.encode_payload ~compress:true entries in
  check Alcotest.char "compressible body takes the LZ flag" 'C' (Bytes.get lz 0);
  check Alcotest.bool "LZ payload round-trips" true (Log_entry.decode_payload lz = entries);
  let plain = Log_entry.encode_plain entries in
  check Alcotest.char "plain flag" 'P' (Bytes.get plain 0);
  check Alcotest.bool "plain payload round-trips" true (Log_entry.decode_payload plain = entries);
  check Alcotest.bool "frame_compressed keeps plain when LZ does not shrink" true
    (Log_entry.frame_compressed plain (Bytes.make (Bytes.length plain) 'x') == plain);
  Alcotest.check_raises "empty payload"
    (Invalid_argument "Log_entry.decode_payload: empty payload") (fun () ->
      ignore (Log_entry.decode_payload Bytes.empty));
  Alcotest.check_raises "bad flag unchanged"
    (Invalid_argument "Log_entry.decode_payload: bad flag 'Z'") (fun () ->
      ignore (Log_entry.decode_payload (Bytes.of_string "Zxxxx")));
  Alcotest.check_raises "truncated plain body unchanged"
    (Invalid_argument "Log_entry.decode_list: truncated Write") (fun () ->
      ignore (Log_entry.decode_payload (Bytes.of_string "PWshort")));
  Alcotest.check_raises "truncated end mark unchanged"
    (Invalid_argument "Log_entry.decode_list: truncated Tx_end") (fun () ->
      ignore (Log_entry.decode_payload (Bytes.sub plain 0 (Bytes.length plain - 1))));
  Alcotest.check_raises "truncated LZ body unchanged"
    (Invalid_argument "Lz.decompress: truncated literals") (fun () ->
      ignore (Log_entry.decode_payload (Bytes.of_string "C\xF0a")))

(* ------------------------------- vlog -------------------------------- *)

let w addr = Log_entry.Write { addr; value = Int64.of_int addr }

let test_vlog_basic () =
  let v = Vlog.create ~capacity:16 () in
  Vlog.append v (w 0);
  Vlog.append v (w 8);
  check Alcotest.int "unsealed entries invisible to consumer" 0 (Vlog.committed v - Vlog.head v);
  Vlog.append_end v ~tid:1;
  check Alcotest.int "sealed entries visible" 3 (Vlog.committed v - Vlog.head v);
  check Alcotest.bool "entry readable" true (Vlog.get v 0 = w 0);
  Vlog.consume_to v (Vlog.committed v);
  check Alcotest.int "consumed" 0 (Vlog.committed v - Vlog.head v)

let test_vlog_abort_pop () =
  let v = Vlog.create ~capacity:16 () in
  Vlog.append v (w 0);
  Vlog.append_end v ~tid:1;
  Vlog.append v (w 8);
  Vlog.append v (w 16);
  check Alcotest.int "two unsealed entries" 2 (Vlog.current_tx_entries v);
  Vlog.pop_current_tx v;
  check Alcotest.int "aborted entries dropped" 0 (Vlog.current_tx_entries v);
  check Alcotest.int "sealed prefix intact" 2 (Vlog.committed v - Vlog.head v)

let test_vlog_wraparound () =
  let v = Vlog.create ~capacity:8 () in
  for round = 1 to 10 do
    Vlog.append v (w (8 * round));
    Vlog.append v (w (8 * round));
    Vlog.append_end v ~tid:round;
    (* Consumer keeps pace, forcing the ring to wrap repeatedly. *)
    check Alcotest.bool "entry content correct across wrap" true
      (Vlog.get v (Vlog.head v) = w (8 * round));
    Vlog.consume_to v (Vlog.committed v)
  done;
  check Alcotest.int "total appended" 30 (Vlog.total_appended v)

let test_vlog_blocks_when_full () =
  (* Producer must block on a full ring until the consumer frees space. *)
  let v = Vlog.create ~capacity:4 () in
  let produced = ref 0 in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "producer" (fun () ->
                for i = 1 to 10 do
                  Vlog.append v (w (8 * i));
                  Vlog.append_end v ~tid:i;
                  incr produced
                done));
         ignore
           (Sched.spawn "consumer" (fun () ->
                let consumed = ref 0 in
                while !consumed < 20 do
                  Sched.advance 50;
                  let avail = Vlog.committed v - Vlog.head v in
                  consumed := !consumed + avail;
                  Vlog.consume_to v (Vlog.committed v)
                done))));
  check Alcotest.int "producer finished despite tiny ring" 10 !produced;
  check Alcotest.bool "producer blocked at least once" true (Vlog.producer_blocks v > 0)

let test_vlog_unbounded_grows () =
  let v = Vlog.create ~unbounded:true ~capacity:4 () in
  for i = 1 to 100 do
    Vlog.append v (w (8 * i))
  done;
  Vlog.append_end v ~tid:1;
  check Alcotest.int "grew beyond initial capacity" 101 (Vlog.length v);
  check Alcotest.int "no blocking in unbounded mode" 0 (Vlog.producer_blocks v);
  (* Contents survive growth. *)
  check Alcotest.bool "first entry intact" true (Vlog.get v 0 = w 8);
  check Alcotest.bool "last entry intact" true (Vlog.get v 99 = w 800)

let test_vlog_clear () =
  let v = Vlog.create ~capacity:8 () in
  Vlog.append v (w 0);
  Vlog.append_end v ~tid:1;
  Vlog.clear v;
  check Alcotest.int "empty after clear" 0 (Vlog.length v)

(* ----------------------------- checksum ------------------------------ *)

let test_crc_known_value () =
  (* IEEE CRC-32 of "123456789" is 0xCBF43926. *)
  check Alcotest.int32 "crc32 check vector" 0xCBF43926l
    (Checksum.crc32_bytes (Bytes.of_string "123456789"))

let test_crc_detects_flip () =
  let b = Bytes.of_string "some log record payload" in
  let c = Checksum.crc32_bytes b in
  Bytes.set b 3 'X';
  check Alcotest.bool "bit flip changes crc" true (c <> Checksum.crc32_bytes b)

let prop_crc_chaining =
  QCheck2.Test.make ~name:"crc32: chained equals whole" ~count:200
    QCheck2.Gen.(tup2 (string_size (int_range 0 50)) (string_size (int_range 0 50)))
    (fun (a, b) ->
      let whole = Checksum.crc32_bytes (Bytes.of_string (a ^ b)) in
      let c1 = Checksum.crc32 (Bytes.of_string a) 0 (String.length a) in
      let chained = Checksum.crc32 ~init:c1 (Bytes.of_string b) 0 (String.length b) in
      whole = chained)

(* The classic one-table bytewise CRC-32 over boxed [Int32]: the reference
   the slicing-by-8 kernel must equal bit for bit. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let ref_crc32 ~init b off len =
  let c = ref (Int32.lognot init) in
  for i = off to off + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xffl)
    in
    c := Int32.logxor ref_table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

(* Short lengths (every length 0..15) come up often, longer ones cover
   every tail length 0..7 after the 8-byte steps; [off] is unaligned and
   [init] ranges over all of int32, negative included. *)
let prop_crc_matches_bytewise =
  QCheck2.Test.make ~name:"crc32: slicing-by-8 equals the bytewise kernel" ~count:2000
    QCheck2.Gen.(
      let* len = oneof [ int_range 0 15; int_range 0 2048 ] in
      let* off = int_range 0 15 in
      let* slack = int_range 0 7 in
      let* init = oneof [ return 0l; int32 ] in
      let+ s = string_size (return (off + len + slack)) in
      (Bytes.of_string s, off, len, init))
    (fun (b, off, len, init) -> Checksum.crc32 ~init b off len = ref_crc32 ~init b off len)

let test_crc_bounds () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (off, len) ->
      check Alcotest.bool
        (Printf.sprintf "off %d len %d rejected" off len)
        true
        (match Checksum.crc32 b off len with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (-1, 4); (0, -1); (0, 17); (9, 8); (17, 0); (16, 1); (min_int, 8) ];
  check Alcotest.int32 "empty range at the end is the empty CRC" 0l (Checksum.crc32 b 16 0)

(* ----------------------------- combine ------------------------------- *)

let replay entries =
  let mem = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Log_entry.Write { addr; value } -> Hashtbl.replace mem addr value
      | Log_entry.Alloc _ | Log_entry.Free _ | Log_entry.Tx_end _ | Log_entry.Cross _ -> ())
    entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) mem [] |> List.sort compare

let test_combine_last_writer_wins () =
  let group =
    [
      Log_entry.Write { addr = 0; value = 1L };
      Log_entry.Write { addr = 8; value = 2L };
      Log_entry.Tx_end { tid = 1 };
      Log_entry.Write { addr = 0; value = 3L };
      Log_entry.Tx_end { tid = 2 };
    ]
  in
  let combined, stats = Combine.combine group in
  check Alcotest.int "writes in" 3 stats.Combine.writes_in;
  check Alcotest.int "writes out" 2 stats.Combine.writes_out;
  check Alcotest.bool "replay equivalent" true (replay group = replay combined);
  check Alcotest.(list int) "all tids preserved" [ 1; 2 ] (Log_entry.tids combined)

let test_combine_preserves_alloc_order () =
  let group =
    [
      Log_entry.Alloc { off = 0; len = 8 };
      Log_entry.Free { off = 0; len = 8 };
      Log_entry.Alloc { off = 0; len = 8 };
      Log_entry.Tx_end { tid = 1 };
    ]
  in
  let combined, _ = Combine.combine group in
  let allocs =
    List.filter
      (function Log_entry.Alloc _ | Log_entry.Free _ -> true | _ -> false)
      combined
  in
  check Alcotest.int "all allocation events kept in order" 3 (List.length allocs);
  check Alcotest.bool "order preserved" true
    (allocs
    = [
        Log_entry.Alloc { off = 0; len = 8 };
        Log_entry.Free { off = 0; len = 8 };
        Log_entry.Alloc { off = 0; len = 8 };
      ])

let prop_combine_replay_equivalent =
  QCheck2.Test.make ~name:"combine: replay-equivalent to the original group" ~count:300
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 120) entry_gen)
    (fun group ->
      let combined, stats = Combine.combine group in
      replay group = replay combined
      && stats.Combine.writes_out <= stats.Combine.writes_in
      && Log_entry.tids combined = Log_entry.tids group)

(* Adversarial structured groups: every transaction draws its writes from a
   tiny address pool, so consecutive transactions overlap heavily (the case
   combination exists for); some transactions are empty (a bare end mark).
   Combination must stay replay-equivalent, keep every end mark, and emit at
   most one write per address. *)
let adversarial_group_gen =
  QCheck2.Gen.(
    let tx tid =
      let* writes =
        list_size (int_range 0 6)
          (map2
             (fun a v -> Log_entry.Write { addr = 8 * a; value = Int64.of_int v })
             (int_range 0 3) (int_range 0 1000))
      in
      return (writes @ [ Log_entry.Tx_end { tid } ])
    in
    let* n = int_range 1 12 in
    let rec build i acc =
      if i > n then return (List.concat (List.rev acc))
      else
        let* t = tx i in
        build (i + 1) (t :: acc)
    in
    build 1 [])

let prop_combine_adversarial_overlap =
  QCheck2.Test.make
    ~name:"combine: overlapping and empty transactions stay replay-equivalent"
    ~count:500 adversarial_group_gen
    (fun group ->
      let combined, stats = Combine.combine group in
      let write_addrs =
        List.filter_map
          (function Log_entry.Write { addr; _ } -> Some addr | _ -> None)
          combined
      in
      replay group = replay combined
      && Log_entry.tids combined = Log_entry.tids group
      && List.length write_addrs = List.length (List.sort_uniq compare write_addrs)
      && stats.Combine.writes_out = List.length write_addrs
      (* A combined group must also survive the wire format: recovery sees
         it only through encode/decode. *)
      && Log_entry.decode_list (Log_entry.encode_list combined) = combined)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_encode_roundtrip;
    Alcotest.test_case "entry encoding sizes" `Quick test_encode_sizes;
    Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
    Alcotest.test_case "tids extraction" `Quick test_tids_extraction;
    QCheck_alcotest.to_alcotest prop_payload_roundtrip;
    Alcotest.test_case "payload decodes in place, errors unchanged" `Quick
      test_payload_decode_in_place;
    Alcotest.test_case "vlog basics" `Quick test_vlog_basic;
    Alcotest.test_case "vlog abort pops attempt" `Quick test_vlog_abort_pop;
    Alcotest.test_case "vlog wraps around" `Quick test_vlog_wraparound;
    Alcotest.test_case "vlog blocks producer when full" `Quick test_vlog_blocks_when_full;
    Alcotest.test_case "vlog unbounded growth" `Quick test_vlog_unbounded_grows;
    Alcotest.test_case "vlog clear" `Quick test_vlog_clear;
    Alcotest.test_case "crc32 check vector" `Quick test_crc_known_value;
    Alcotest.test_case "crc32 detects corruption" `Quick test_crc_detects_flip;
    QCheck_alcotest.to_alcotest prop_crc_chaining;
    QCheck_alcotest.to_alcotest prop_crc_matches_bytewise;
    Alcotest.test_case "crc32 rejects out-of-range off/len" `Quick test_crc_bounds;
    Alcotest.test_case "combine: last writer wins" `Quick test_combine_last_writer_wins;
    Alcotest.test_case "combine preserves allocation order" `Quick test_combine_preserves_alloc_order;
    QCheck_alcotest.to_alcotest prop_combine_replay_equivalent;
    QCheck_alcotest.to_alcotest prop_combine_adversarial_overlap;
  ]
