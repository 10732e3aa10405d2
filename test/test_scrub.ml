(* Offline media scrub: poison clearing, extent audit and repair from live
   log records, unrepairable-loss reporting, checkpoint-slot repair, and
   stuck-line remapping into the persistent bad-line table. *)

module Sched = Dudetm_sim.Sched
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Checkpoint = Dudetm_core.Checkpoint
module Crcdir = Dudetm_core.Crcdir
module Checksum = Dudetm_log.Checksum
module Badline = Dudetm_core.Badline
module Plog = Dudetm_log.Plog
module Log_entry = Dudetm_log.Log_entry
module Scrub = Dudetm_scrub.Scrub
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

let scfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = 2;
    vlog_capacity = 256;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    checkpoint_records = 2;
    seed = 7;
  }

(* Run a short counter workload to quiescence and cut power: a realistic
   crashed image with checkpoints, sealed CRC directory entries, and
   possibly still-live (unrecycled) log records. *)
let quiescent_image ?(txs = 10) () =
  let t = D.create scfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         Sched.join ~label:"workload"
           (List.init scfg.Config.nthreads (fun th ->
                Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                    for _ = 1 to txs do
                      ignore
                        (D.atomically t ~thread:th (fun tx ->
                             let c = D.read tx (D.root_base t) in
                             let c1 = Int64.add c 1L in
                             D.write tx (8 + (8 * (Int64.to_int c1 mod 8))) c1;
                             D.write tx (D.root_base t) c1))
                    done)));
         D.drain t;
         D.stop t));
  Nvm.crash (D.nvm t);
  D.nvm t

let test_undamaged_image_nothing_lost () =
  let nvm = quiescent_image () in
  let r = Scrub.scrub scfg nvm in
  check Alcotest.bool "checkpoint intact" true (r.Scrub.ckpt <> `Fatal);
  check Alcotest.(list int) "no unreconstructible extents" [] r.Scrub.bad_extents;
  check Alcotest.int "no poison" 0 r.Scrub.poison_cleared;
  check Alcotest.int "no stuck lines" 0 r.Scrub.stuck_remapped;
  check Alcotest.int "no reformatted rings" 0 r.Scrub.rings_reformatted;
  check Alcotest.int "no ring corruption" 0 r.Scrub.ring_corrupted_records;
  check Alcotest.int "every extent audited"
    (scfg.Config.heap_size / Config.crc_extent)
    r.Scrub.extents_checked;
  (* Recovery after the scrub works and agrees with the image. *)
  let t2, report = D.attach scfg nvm in
  check Alcotest.int64 "counter equals recovered durable id"
    (Int64.of_int report.Dudetm_core.Dudetm.durable)
    (D.heap_read_u64 t2 (D.root_base t2))

let test_poison_cleared_and_counted () =
  let nvm = quiescent_image () in
  (* Line 100 (bytes 6400..6463) is untouched heap: zero, sealed as zero. *)
  Nvm.inject_fault nvm (Nvm.Poison { line = 100 });
  let r = Scrub.scrub scfg nvm in
  check Alcotest.int "poisoned line cleared" 1 r.Scrub.poison_cleared;
  check Alcotest.bool "poison gone from the device" false (Nvm.is_poisoned nvm ~line:100);
  check Alcotest.(list int) "zeroed content matches its sealed CRC" [] r.Scrub.bad_extents;
  check Alcotest.bool "not a clean report" false (Scrub.clean r)

let test_heap_rot_never_silent () =
  let nvm = quiescent_image () in
  (* Byte 12 sits in the live slot area of extent 0. *)
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = 12; bit = 6 });
  let r = Scrub.scrub scfg nvm in
  check Alcotest.bool "rot detected by the extent audit" true
    (r.Scrub.extents_repaired + List.length r.Scrub.bad_extents >= 1);
  check Alcotest.bool "not a clean report" false (Scrub.clean r)

let test_repair_from_live_records () =
  (* Handcrafted detection window: a record is sealed and its write applied
     and persisted to home, but no checkpoint resealed the extent's CRC
     entry.  The entry legitimately mismatches; the still-live record
     re-covers the extent, so scrub replays it and reseals. *)
  let t = D.create scfg in
  let nvm = D.nvm t in
  let plog, scan =
    Plog.attach_scan nvm ~base:(Config.plog_base scfg 0) ~size:scfg.Config.plog_size
  in
  check Alcotest.bool "ring header intact" false scan.Plog.header_lost;
  let payload =
    Log_entry.encode_payload
      [ Log_entry.Write { addr = 512; value = 77L }; Log_entry.Tx_end { tid = 1 } ]
  in
  Plog.append plog payload ~pos:0 ~len:(Bytes.length payload);
  Nvm.store_u64 nvm 512 77L;
  Nvm.persist nvm ~off:512 ~len:8;
  Nvm.crash nvm;
  let r = Scrub.scrub scfg nvm in
  check Alcotest.int "stale extent resealed from the live record" 1 r.Scrub.extents_repaired;
  check Alcotest.(list int) "nothing unreconstructible" [] r.Scrub.bad_extents;
  check Alcotest.int64 "replayed value persisted" 77L (Nvm.persisted_u64 nvm 512);
  (* The audit invariant is restored: a second scrub is quiet. *)
  let r2 = Scrub.scrub scfg nvm in
  check Alcotest.int "second scrub repairs nothing" 0 r2.Scrub.extents_repaired

let test_unreconstructible_loss_reported () =
  (* Rot in an extent no live record covers: the checkpointed content is
     gone and the scrub must say so rather than reseal silently. *)
  let t = D.create scfg in
  let nvm = D.nvm t in
  Nvm.crash nvm;
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = 3000; bit = 2 });
  let r = Scrub.scrub scfg nvm in
  check Alcotest.(list int) "lost extent reported" [ 3000 / Config.crc_extent ]
    r.Scrub.bad_extents;
  check Alcotest.int "nothing falsely repaired" 0 r.Scrub.extents_repaired;
  check Alcotest.bool "not a clean report" false (Scrub.clean r)

let test_checkpoint_slot_repaired () =
  let nvm = quiescent_image () in
  (* Destroy slot 0's CRC; the survivor in slot 1 rebuilds it. *)
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = Config.meta_base scfg + 1; bit = 4 });
  let r = Scrub.scrub scfg nvm in
  check Alcotest.bool "slot repaired from survivor" true (r.Scrub.ckpt = `Repaired);
  (* Both slots validate again. *)
  let r2 = Scrub.scrub scfg nvm in
  check Alcotest.bool "checkpoint whole after repair" true (r2.Scrub.ckpt = `Ok)

let test_both_slots_lost_is_fatal () =
  let nvm = quiescent_image () in
  let slot = scfg.Config.meta_size / 2 in
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = Config.meta_base scfg + 1; bit = 4 });
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = Config.meta_base scfg + slot + 1; bit = 4 });
  let r = Scrub.scrub scfg nvm in
  check Alcotest.bool "double slot loss is fatal, loudly" true (r.Scrub.ckpt = `Fatal)

let test_stuck_line_remapped () =
  let nvm = quiescent_image () in
  Nvm.inject_fault nvm (Nvm.Stuck_line { line = 50 });
  let r = Scrub.scrub ~probe_stuck:true scfg nvm in
  check Alcotest.int "stuck line found by the probe sweep" 1 r.Scrub.stuck_remapped;
  check Alcotest.bool "table not full" false r.Scrub.badline_table_full;
  (* The remap is persistent: a fresh attach of the table sees it. *)
  let bl, intact = Badline.attach nvm scfg in
  check Alcotest.bool "bad-line table intact" true intact;
  check Alcotest.bool "line 50 recorded" true (Badline.mem bl 50);
  (* A second scrub does not re-report the already-remapped line. *)
  let r2 = Scrub.scrub ~probe_stuck:true scfg nvm in
  check Alcotest.int "already-remapped line not re-counted" 0 r2.Scrub.stuck_remapped

let test_report_only_mode () =
  let nvm = quiescent_image () in
  Nvm.inject_fault nvm (Nvm.Poison { line = 100 });
  let r = Scrub.scrub ~repair:false scfg nvm in
  check Alcotest.int "report-only clears nothing" 0 r.Scrub.poison_cleared;
  check Alcotest.bool "poison still present" true (Nvm.is_poisoned nvm ~line:100)

(* [Crcdir.update] seals each extent of the set's latest image, and
   [verify_extent] classifies an extent against its persisted entry. *)
let test_crcdir_seal_and_verify () =
  let nvm = quiescent_image () in
  let dir = Crcdir.attach nvm scfg in
  let ext = Config.crc_extent in
  let stored e =
    Int64.to_int (Nvm.persisted_u64 nvm (Config.crcdir_base scfg + (8 * e))) land 0xffffffff
  in
  let e1 = 5 and e2 = 9 in
  Nvm.store_bytes nvm ((e1 * ext) + 3) (Bytes.of_string "fresh extent bytes");
  Nvm.store_u64 nvm (e2 * ext) 0x1234L;
  let set = Crcdir.dirty () in
  List.iter (Crcdir.mark set) [ e1; e2 ];
  Crcdir.update dir set;
  List.iter
    (fun e ->
      let want = Checksum.crc32_bytes (Nvm.load_bytes nvm (e * ext) ext) in
      check Alcotest.int (Printf.sprintf "extent %d sealed from its latest image" e) want
        (stored e);
      check Alcotest.int "compute_latest agrees" want (Crcdir.compute_latest dir e))
    [ e1; e2 ];
  (* The sealed extents are still dirty: their persisted content is stale. *)
  check Alcotest.bool "unpersisted extent mismatches" true (Crcdir.verify_extent dir e1 = `Mismatch);
  Nvm.persist nvm ~off:(e1 * ext) ~len:ext;
  check Alcotest.bool "persisted extent verifies" true (Crcdir.verify_extent dir e1 = `Ok);
  check Alcotest.int "compute_persisted agrees"
    (Checksum.crc32_bytes (Nvm.persisted_bytes nvm (e1 * ext) ext))
    (Crcdir.compute_persisted dir e1);
  Nvm.inject_fault nvm (Nvm.Bit_rot { off = (e1 * ext) + 100; bit = 2 });
  check Alcotest.bool "rotten extent mismatches" true (Crcdir.verify_extent dir e1 = `Mismatch);
  let line_of off = off / Nvm.line_size nvm in
  Nvm.inject_fault nvm (Nvm.Poison { line = line_of ((e2 * ext) + ext - 1) });
  check Alcotest.bool "poisoned extent" true (Crcdir.verify_extent dir e2 = `Poisoned);
  Nvm.inject_fault nvm (Nvm.Poison { line = line_of (Config.crcdir_base scfg + (8 * 20)) });
  check Alcotest.bool "poisoned directory slot" true (Crcdir.verify_extent dir 20 = `Poisoned)

let suite =
  [
    Alcotest.test_case "undamaged image loses nothing" `Quick
      test_undamaged_image_nothing_lost;
    Alcotest.test_case "poison cleared and counted" `Quick test_poison_cleared_and_counted;
    Alcotest.test_case "heap rot never silent" `Quick test_heap_rot_never_silent;
    Alcotest.test_case "stale extent repaired from live records" `Quick
      test_repair_from_live_records;
    Alcotest.test_case "unreconstructible loss reported" `Quick
      test_unreconstructible_loss_reported;
    Alcotest.test_case "checkpoint slot repaired" `Quick test_checkpoint_slot_repaired;
    Alcotest.test_case "double checkpoint loss is fatal" `Quick test_both_slots_lost_is_fatal;
    Alcotest.test_case "stuck line remapped persistently" `Quick test_stuck_line_remapped;
    Alcotest.test_case "report-only mode" `Quick test_report_only_mode;
    Alcotest.test_case "crcdir seals latest images and verifies extents" `Quick
      test_crcdir_seal_and_verify;
  ]
