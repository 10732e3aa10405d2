(* Shadow memory and paging: translation, fault/evict, pinning, the
   touching-ID swap-in gate. *)

module Shadow = Dudetm_shadow.Shadow
module Page_table = Dudetm_shadow.Page_table
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats

let check = Alcotest.check

(* ----------------------------- page table ---------------------------- *)

let test_pt_map_unmap () =
  let pt = Page_table.create ~pages:16 ~frames:4 in
  check Alcotest.bool "fresh page absent" true (Page_table.frame_of pt 3 = -1);
  let f = Page_table.free_frame pt in
  Page_table.map pt ~page:3 ~frame:f;
  check Alcotest.int "mapped" f (Page_table.frame_of pt 3);
  check Alcotest.int "resident count" 1 (Page_table.resident pt);
  Page_table.unmap_frame pt f;
  check Alcotest.int "unmapped" (-1) (Page_table.frame_of pt 3);
  check Alcotest.int "resident count back to 0" 0 (Page_table.resident pt)

let test_pt_double_map_rejected () =
  let pt = Page_table.create ~pages:16 ~frames:4 in
  Page_table.map pt ~page:1 ~frame:0;
  Alcotest.check_raises "frame reuse rejected"
    (Invalid_argument "Page_table.map: frame in use") (fun () ->
      Page_table.map pt ~page:2 ~frame:0);
  Alcotest.check_raises "page remap rejected"
    (Invalid_argument "Page_table.map: page already resident") (fun () ->
      Page_table.map pt ~page:1 ~frame:1);
  (* [map] claims only the frame [free_frame] names. *)
  Alcotest.check_raises "free frame other than free_frame rejected"
    (Invalid_argument "Page_table.map: frame is not free_frame") (fun () ->
      Page_table.map pt ~page:2 ~frame:2);
  check Alcotest.int "nothing mapped by the rejects" 1 (Page_table.resident pt);
  Page_table.map pt ~page:2 ~frame:1;
  check Alcotest.int "next free frame" 2 (Page_table.free_frame pt)

let test_pt_clock_victim_skips () =
  let pt = Page_table.create ~pages:16 ~frames:3 in
  Page_table.map pt ~page:0 ~frame:0;
  Page_table.map pt ~page:1 ~frame:1;
  Page_table.map pt ~page:2 ~frame:2;
  (* Skip frames 0 and 2: the only eligible victim is 1. *)
  (match Page_table.clock_victim pt ~skip:(fun f -> f <> 1) with
  | Some 1 -> ()
  | _ -> Alcotest.fail "victim should be frame 1");
  match Page_table.clock_victim pt ~skip:(fun _ -> true) with
  | None -> ()
  | Some _ -> Alcotest.fail "all skipped should yield None"

let test_pt_has_victim_keeps_hand () =
  (* [has_victim] is the pinned-frames wait predicate: polling it any number
     of times must leave the next [clock_victim] choice unchanged. *)
  let fill () =
    let pt = Page_table.create ~pages:16 ~frames:3 in
    List.iter (fun f -> Page_table.map pt ~page:f ~frame:f) [ 0; 1; 2 ];
    pt
  in
  let polled = fill () and fresh = fill () in
  let skip f = f = 0 in
  for _ = 1 to 5 do
    check Alcotest.bool "a victim exists" true (Page_table.has_victim polled ~skip)
  done;
  check Alcotest.bool "all pinned: no victim" false
    (Page_table.has_victim polled ~skip:(fun _ -> true));
  check
    Alcotest.(option int)
    "next victim unchanged by polling"
    (Page_table.clock_victim fresh ~skip)
    (Page_table.clock_victim polled ~skip)

(* ------------------------------ shadow ------------------------------- *)

let make_shadow ?(frames = 4) ?(mode = Shadow.Software) ?(applied = ref max_int)
    ?(wake_applied = Sched.cond ()) () =
  let nvm = Nvm.create ~charge_time:false Pmem_config.default ~size:65536 in
  let cfg = Shadow.default_config mode ~frames in
  (Shadow.create cfg ~nvm ~applied_id:(fun () -> !applied) ~wake_applied, nvm, applied)

let test_shadow_reads_nvm_content () =
  let sh, nvm, _ = make_shadow () in
  Nvm.store_u64 nvm 4096 77L;
  check Alcotest.int64 "fault-in copies NVM" 77L (Shadow.load_u64 sh 4096);
  check Alcotest.int "one fault" 1 (Stats.get (Shadow.stats sh) "faults")

let test_shadow_store_never_reaches_nvm () =
  let sh, nvm, _ = make_shadow () in
  Shadow.store_u64 sh 0 123L;
  check Alcotest.int64 "shadow sees the store" 123L (Shadow.load_u64 sh 0);
  check Alcotest.int64 "NVM never does" 0L (Nvm.load_u64 nvm 0)

let test_shadow_eviction_discards () =
  let sh, _, _ = make_shadow ~frames:2 () in
  Shadow.store_u64 sh 0 1L;
  (* Touch enough distinct pages to evict page 0. *)
  for p = 1 to 4 do
    ignore (Shadow.load_u64 sh (p * 4096))
  done;
  check Alcotest.bool "evictions happened" true (Stats.get (Shadow.stats sh) "evictions" > 0);
  (* Page 0 refaults from NVM: the dirty shadow data is gone (by design —
     its updates live in redo logs). *)
  check Alcotest.int64 "refault reads NVM, not the old dirty frame" 0L (Shadow.load_u64 sh 0)

let test_shadow_pin_prevents_eviction () =
  let sh, _, _ = make_shadow ~frames:2 () in
  Shadow.store_u64 sh 0 9L;
  Shadow.pin sh 0;
  ignore
    (Sched.run (fun () ->
         for p = 1 to 6 do
           ignore (Shadow.load_u64 sh (p * 4096))
         done));
  check Alcotest.int64 "pinned page survives pressure" 9L (Shadow.load_u64 sh 0);
  Shadow.unpin sh 0;
  check Alcotest.int "pins balanced" 0 (Shadow.pinned_pages sh)

let test_shadow_all_pinned_waits () =
  (* With every frame pinned, a new fault must wait until an unpin. *)
  let sh, _, _ = make_shadow ~frames:2 () in
  let faulted = ref false in
  ignore
    (Sched.run (fun () ->
         Shadow.pin sh 0;
         Shadow.pin sh 4096;
         ignore
           (Sched.spawn "faulter" (fun () ->
                ignore (Shadow.load_u64 sh (5 * 4096));
                faulted := true));
         ignore
           (Sched.spawn "unpinner" (fun () ->
                Sched.advance 50_000;
                Shadow.unpin sh 0))));
  check Alcotest.bool "fault completed after unpin" true !faulted

let test_touching_gate () =
  (* A page whose touching ID is ahead of Reproduce must not swap in until
     the watermark catches up. *)
  let applied = ref 0 and wake_applied = Sched.cond () in
  let sh, nvm, _ = make_shadow ~frames:2 ~applied ~wake_applied () in
  ignore (Shadow.load_u64 sh 0);
  Shadow.set_touching sh ~page:0 ~tid:5;
  (* Evict page 0 by touching other pages. *)
  for p = 1 to 4 do
    ignore (Shadow.load_u64 sh (p * 4096))
  done;
  Nvm.store_u64 nvm 0 42L (* Reproduce applies the write... *);
  let seen = ref 0L in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "reader" (fun () -> seen := Shadow.load_u64 sh 0));
         ignore
           (Sched.spawn "reproduce" (fun () ->
                Sched.advance 10_000;
                applied := 5 (* ...and then announces it *);
                Sched.signal wake_applied))));
  check Alcotest.bool "swap-in waited for reproduce" true
    (Stats.get (Shadow.stats sh) "swapin_waits" > 0);
  check Alcotest.int64 "reader saw the reproduced value" 42L !seen

let test_touching_monotone () =
  let sh, _, _ = make_shadow () in
  Shadow.set_touching sh ~page:1 ~tid:10;
  Shadow.set_touching sh ~page:1 ~tid:7;
  check Alcotest.int "touching never regresses" 10 (Shadow.touching sh ~page:1)

let test_hardware_shootdown_accounting () =
  let sh, _, _ = make_shadow ~frames:2 ~mode:Shadow.Hardware () in
  ignore
    (Sched.run (fun () ->
         for p = 0 to 7 do
           ignore (Shadow.load_u64 sh (p * 4096))
         done));
  let s = Shadow.stats sh in
  check Alcotest.bool "shootdowns accompany hardware evictions" true
    (Stats.get s "shootdowns" > 0 && Stats.get s "shootdowns" = Stats.get s "evictions")

let test_concurrent_fault_single_mapping () =
  (* Many threads faulting the same page concurrently must agree on one
     frame and read consistent data. *)
  let sh, nvm, _ = make_shadow ~frames:4 ~mode:Shadow.Hardware () in
  Nvm.store_u64 nvm 8192 17L;
  let results = Array.make 6 0L in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 5 do
           ignore
             (Sched.spawn (string_of_int t) (fun () -> results.(t) <- Shadow.load_u64 sh 8192))
         done));
  Array.iter (fun v -> check Alcotest.int64 "all threads read the same value" 17L v) results

let test_poisoned_fault_maps_nothing () =
  (* A fault whose page holds a poisoned clean line raises before the frame
     is claimed, and a repaired line faults in normally; a dirty line over
     poison is served from the cache. *)
  let sh, nvm, _ = make_shadow () in
  let ls = Nvm.line_size nvm in
  ignore (Shadow.load_u64 sh 0);
  Nvm.store_u64 nvm 4096 11L;
  Nvm.persist nvm ~off:0 ~len:(Nvm.size nvm);
  let bad = (4096 / ls) + 1 in
  Nvm.inject_fault nvm (Nvm.Poison { line = bad });
  let resident = Shadow.resident sh and faults0 = Stats.get (Shadow.stats sh) "faults" in
  Alcotest.check_raises "clean poisoned line raises" (Nvm.Media_error (bad * ls)) (fun () ->
      ignore (Shadow.load_u64 sh 4096));
  (* Frames are free, so no eviction: an unchanged count means no frame was
     claimed. *)
  check Alcotest.int "nothing mapped" resident (Shadow.resident sh);
  (* Repair: rewrite the whole line and flush it. *)
  for w = 0 to (ls / 8) - 1 do
    Nvm.store_u64 nvm ((bad * ls) + (w * 8)) 22L
  done;
  Nvm.persist nvm ~off:0 ~len:(Nvm.size nvm);
  check Alcotest.int64 "retry after repair" 22L (Shadow.load_u64 sh (bad * ls));
  check Alcotest.int "the retry faulted again" 2 (Stats.get (Shadow.stats sh) "faults" - faults0);
  check Alcotest.int "now mapped" (resident + 1) (Shadow.resident sh);
  check Alcotest.int64 "rest of the page intact" 11L (Shadow.load_u64 sh 4096);
  let dirty = (2 * 4096 / ls) + 3 in
  Nvm.inject_fault nvm (Nvm.Poison { line = dirty });
  Nvm.store_u64 nvm (dirty * ls) 33L;
  check Alcotest.int64 "dirty line over poison served from the cache" 33L
    (Shadow.load_u64 sh (dirty * ls))

let test_fault_allocation_guard () =
  (* A fault copies NVM straight into its frame: 100 faults (16 pages cycled
     through 4 frames, so every access misses) must not allocate a page
     buffer each. *)
  let sh, _, _ = make_shadow ~frames:4 () in
  ignore (Shadow.load_u64 sh 0);
  let faults0 = Stats.get (Shadow.stats sh) "faults" in
  let per_fault =
    Test_plog.allocated (fun () ->
        for i = 1 to 100 do
          ignore (Shadow.load_u64 sh (i mod 16 * 4096))
        done)
    /. 100.
  in
  check Alcotest.int "every access faulted" 100 (Stats.get (Shadow.stats sh) "faults" - faults0);
  if per_fault >= 64. then Alcotest.failf "%.1f words allocated per fault (limit 64)" per_fault

let suite =
  [
    Alcotest.test_case "page table map/unmap" `Quick test_pt_map_unmap;
    Alcotest.test_case "page table rejects double mapping" `Quick test_pt_double_map_rejected;
    Alcotest.test_case "clock victim skips pinned" `Quick test_pt_clock_victim_skips;
    Alcotest.test_case "has_victim polls without moving the hand" `Quick
      test_pt_has_victim_keeps_hand;
    Alcotest.test_case "fault-in copies NVM content" `Quick test_shadow_reads_nvm_content;
    Alcotest.test_case "shadow stores never reach NVM" `Quick test_shadow_store_never_reaches_nvm;
    Alcotest.test_case "eviction discards dirty pages" `Quick test_shadow_eviction_discards;
    Alcotest.test_case "pin prevents eviction" `Quick test_shadow_pin_prevents_eviction;
    Alcotest.test_case "all-pinned fault waits for unpin" `Quick test_shadow_all_pinned_waits;
    Alcotest.test_case "touching-ID gate blocks stale swap-in" `Quick test_touching_gate;
    Alcotest.test_case "touching IDs are monotone" `Quick test_touching_monotone;
    Alcotest.test_case "hardware evictions shoot down TLBs" `Quick
      test_hardware_shootdown_accounting;
    Alcotest.test_case "concurrent faults agree on one mapping" `Quick
      test_concurrent_fault_single_mapping;
    Alcotest.test_case "poisoned fault maps nothing" `Quick test_poisoned_fault_maps_nothing;
    Alcotest.test_case "faults allocate no page buffer" `Quick test_fault_allocation_guard;
  ]
