(* Persistent allocator and checkpoint tests. *)

module Alloc = Dudetm_core.Alloc
module Checkpoint = Dudetm_core.Checkpoint
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Rng = Dudetm_sim.Rng

let check = Alcotest.check

let test_alloc_basic () =
  let a = Alloc.create ~base:0 ~size:1024 in
  check Alcotest.int "all free" 1024 (Alloc.free_bytes a);
  let b1 = Option.get (Alloc.alloc a 100) in
  check Alcotest.int "first fit at base" 0 b1;
  check Alcotest.int "rounded to 8" (1024 - 104) (Alloc.free_bytes a);
  let b2 = Option.get (Alloc.alloc a 8) in
  check Alcotest.int "next block adjacent" 104 b2

let test_alloc_exhaustion () =
  let a = Alloc.create ~base:0 ~size:64 in
  check Alcotest.bool "big request fails" true (Alloc.alloc a 100 = None);
  ignore (Option.get (Alloc.alloc a 64));
  check Alcotest.bool "empty allocator fails" true (Alloc.alloc a 1 = None)

let test_free_coalesces () =
  let a = Alloc.create ~base:0 ~size:1024 in
  let b1 = Option.get (Alloc.alloc a 100) in
  let b2 = Option.get (Alloc.alloc a 100) in
  let b3 = Option.get (Alloc.alloc a 100) in
  ignore b3;
  Alloc.free a ~off:b1 ~len:100;
  Alloc.free a ~off:b2 ~len:100;
  (* b1 and b2 coalesce: a 208-byte request fits in the hole. *)
  check Alcotest.int "coalesced hole reused" b1 (Option.get (Alloc.alloc a 208))

let test_double_free_rejected () =
  let a = Alloc.create ~base:0 ~size:1024 in
  let b = Option.get (Alloc.alloc a 64) in
  Alloc.free a ~off:b ~len:64;
  Alcotest.check_raises "double free detected"
    (Invalid_argument "Alloc.free: block overlaps a free extent") (fun () ->
      Alloc.free a ~off:b ~len:64)

let test_reserve_exact () =
  let a = Alloc.create ~base:0 ~size:1024 in
  Alloc.reserve a ~off:512 ~len:64;
  check Alcotest.int "reserve carves the middle" (1024 - 64) (Alloc.free_bytes a);
  (* The two remaining extents are [0,512) and [576,1024). *)
  check Alcotest.(list (pair int int)) "extents split" [ (0, 512); (576, 448) ] (Alloc.extents a);
  Alcotest.check_raises "reserving an allocated range fails"
    (Invalid_argument "Alloc.reserve: range partially free") (fun () ->
      Alloc.reserve a ~off:500 ~len:64)

let test_restore_roundtrip () =
  let a = Alloc.create ~base:0 ~size:4096 in
  ignore (Alloc.alloc a 100);
  let b = Option.get (Alloc.alloc a 200) in
  ignore (Alloc.alloc a 300);
  Alloc.free a ~off:b ~len:200;
  let restored = Alloc.restore (Alloc.extents a) in
  check Alcotest.bool "restore reproduces the free list" true (Alloc.equal a restored)

let prop_alloc_free_no_overlap =
  (* Random alloc/free sequences: live blocks never overlap, and freeing
     everything returns to one full extent. *)
  QCheck2.Test.make ~name:"alloc: no overlap and full coalescing" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 200))
    (fun sizes ->
      let a = Alloc.create ~base:0 ~size:65536 in
      let live = ref [] in
      List.iter
        (fun n ->
          match Alloc.alloc a n with
          | Some off ->
            (* Overlap check against live blocks. *)
            List.iter
              (fun (o, l) ->
                if off < o + l && o < off + ((n + 7) / 8 * 8) then
                  QCheck2.Test.fail_reportf "blocks overlap: (%d,%d) vs (%d,%d)" off n o l)
              !live;
            live := (off, (n + 7) / 8 * 8) :: !live
          | None -> ())
        sizes;
      List.iter (fun (o, l) -> Alloc.free a ~off:o ~len:l) !live;
      Alloc.extents a = [ (0, 65536) ])

let prop_alloc_replay_equivalence =
  (* Replaying the Alloc/Free event log with reserve/free reproduces the
     allocator state — the recovery path's invariant. *)
  QCheck2.Test.make ~name:"alloc: event-log replay reproduces state" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (tup2 (int_range 1 128) bool))
    (fun ops ->
      let a = Alloc.create ~base:0 ~size:32768 in
      let replayed = Alloc.create ~base:0 ~size:32768 in
      let live = ref [] in
      let log = ref [] in
      List.iter
        (fun (n, do_free) ->
          if do_free && !live <> [] then begin
            let (o, l), rest = (List.hd !live, List.tl !live) in
            live := rest;
            Alloc.free a ~off:o ~len:l;
            log := `Free (o, l) :: !log
          end
          else
            match Alloc.alloc a n with
            | Some off ->
              live := (off, (n + 7) / 8 * 8) :: !live;
              log := `Alloc (off, n) :: !log
            | None -> ())
        ops;
      List.iter
        (function
          | `Alloc (off, len) -> Alloc.reserve replayed ~off ~len
          | `Free (off, len) -> Alloc.free replayed ~off ~len)
        (List.rev !log);
      Alloc.equal a replayed)

(* ----------------------------- checkpoint ---------------------------- *)

let device () = Nvm.create ~charge_time:false Pmem_config.default ~size:65536

let state upto exts =
  { Checkpoint.reproduced_upto = upto; cross_frontier = 0; free_extents = exts }

let test_checkpoint_roundtrip () =
  let nvm = device () in
  let t = Checkpoint.format nvm ~base:0 ~size:8192 (state 0 [ (0, 4096) ]) in
  Checkpoint.write t (state 17 [ (8, 100); (200, 50) ]);
  Nvm.crash nvm;
  let _, st = Checkpoint.attach nvm ~base:0 ~size:8192 in
  check Alcotest.int "watermark restored" 17 st.Checkpoint.reproduced_upto;
  check Alcotest.(list (pair int int)) "extents restored" [ (8, 100); (200, 50) ]
    st.Checkpoint.free_extents

let test_checkpoint_alternates_slots () =
  let nvm = device () in
  let t = Checkpoint.format nvm ~base:0 ~size:8192 (state 0 []) in
  for i = 1 to 5 do
    Checkpoint.write t (state i [ (i, i) ])
  done;
  Nvm.crash nvm;
  let _, st = Checkpoint.attach nvm ~base:0 ~size:8192 in
  check Alcotest.int "newest checkpoint wins" 5 st.Checkpoint.reproduced_upto

let test_checkpoint_torn_write_recovers_previous () =
  let nvm = device () in
  let t = Checkpoint.format nvm ~base:0 ~size:8192 (state 0 []) in
  Checkpoint.write t (state 3 [ (0, 8) ]);
  (* Corrupt the NEXT slot with unpersisted garbage, as a torn checkpoint
     write would: the double buffer must fall back to checkpoint 3. *)
  Nvm.store_bytes nvm 4096 (Bytes.make 128 '\xAB');
  Nvm.crash ~evict_fraction:0.7 ~rng:(Rng.create 4) nvm;
  let _, st = Checkpoint.attach nvm ~base:0 ~size:8192 in
  check Alcotest.int "previous checkpoint recovered" 3 st.Checkpoint.reproduced_upto

let test_checkpoint_capacity () =
  let nvm = device () in
  let t = Checkpoint.format nvm ~base:0 ~size:1024 (state 0 []) in
  let too_many = List.init (Checkpoint.max_extents t + 1) (fun i -> (i * 16, 8)) in
  Alcotest.check_raises "oversized free list rejected"
    (Invalid_argument "Checkpoint: free list exceeds slot capacity") (fun () ->
      Checkpoint.write t (state 1 too_many))

(* One flipped bit anywhere in the newest checkpoint slot must leave the
   newest or the previous checkpoint readable — the twin slot exists for
   exactly this — and neither attach nor scrub may raise.  Bits 58 and 62
   of a length word once wrapped the slot bounds check negative.  The slot
   is found by diffing the persisted image around the write, so the test
   does not depend on the slot layout. *)
let test_checkpoint_bit_flip_falls_back () =
  let size = 8192 in
  let prev = state 4 [ (0, 64); (256, 64); (1024, 64) ] in
  let next = state 9 [ (64, 8); (512, 32); (2048, 64) ] in
  let fresh () =
    let nvm = device () in
    let t = Checkpoint.format nvm ~base:0 ~size prev in
    let before = Nvm.persisted_bytes nvm 0 size in
    Checkpoint.write t next;
    (nvm, before)
  in
  let nvm, before = fresh () in
  let after = Nvm.persisted_bytes nvm 0 size in
  let changed =
    List.filter (fun i -> Bytes.get before i <> Bytes.get after i) (List.init size Fun.id)
  in
  let first = List.hd changed and last = List.fold_left max 0 changed in
  let slot_base = if first < size / 2 then 0 else size / 2 in
  for word = slot_base / 8 to last / 8 do
    List.iter
      (fun bit ->
        let nvm, _ = fresh () in
        Nvm.inject_fault nvm (Nvm.Bit_rot { off = (8 * word) + (bit / 8); bit = bit mod 8 });
        let where = Printf.sprintf "word %d bit %d" word bit in
        (match Checkpoint.attach nvm ~base:0 ~size with
        | _, st ->
          check Alcotest.bool (where ^ ": newest or previous") true (st = next || st = prev)
        | exception e -> Alcotest.failf "%s: attach raised %s" where (Printexc.to_string e));
        match Checkpoint.scrub ~repair:false nvm ~base:0 ~size with
        | `Ok | `Degraded -> ()
        | `Repaired | `Fatal -> Alcotest.failf "%s: scrub lost both slots" where
        | exception e -> Alcotest.failf "%s: scrub raised %s" where (Printexc.to_string e))
      [ 0; 31; 58; 62 ]
  done

let suite =
  [
    Alcotest.test_case "alloc basics" `Quick test_alloc_basic;
    Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion;
    Alcotest.test_case "free coalesces" `Quick test_free_coalesces;
    Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
    Alcotest.test_case "reserve carves exact ranges" `Quick test_reserve_exact;
    Alcotest.test_case "restore roundtrip" `Quick test_restore_roundtrip;
    QCheck_alcotest.to_alcotest prop_alloc_free_no_overlap;
    QCheck_alcotest.to_alcotest prop_alloc_replay_equivalence;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint slot alternation" `Quick test_checkpoint_alternates_slots;
    Alcotest.test_case "torn checkpoint falls back" `Quick
      test_checkpoint_torn_write_recovers_previous;
    Alcotest.test_case "checkpoint capacity limit" `Quick test_checkpoint_capacity;
    Alcotest.test_case "checkpoint bit flip falls back to its twin" `Quick
      test_checkpoint_bit_flip_falls_back;
  ]
