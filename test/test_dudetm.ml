(* DudeTM engine tests: the decoupled pipeline, durability protocol,
   allocation, crash consistency and recovery — including randomized
   crash-point injection with adversarial cache evictions. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)
module Dh = Dudetm_core.Dudetm.Make (Dudetm_tm.Htm)

let check = Alcotest.check

(* Invert the byte at [off] in the image; the caller persists it. *)
let flip_byte nvm off =
  Nvm.store_bytes nvm off (Bytes.map (fun c -> Char.chr (Char.code c lxor 0xff)) (Nvm.load_bytes nvm off 1))

let small_cfg ?(nthreads = 3) ?(mode = Config.Async) ?(vlog_capacity = 512)
    ?(plog_size = 1 lsl 14) ?(persist = Config.default.Config.persist) ?shadow_frames () =
  {
    Config.default with
    Config.heap_size = 1 lsl 20;
    nthreads;
    mode;
    vlog_capacity;
    plog_size;
    persist;
    shadow_frames;
  }

(* Counter workload: every transaction increments word 0 and stamps slot
   [counter mod slots] — recovery invariants are checkable from the
   counter value alone. *)
let counter_slots = 200

let counter_tx t thread =
  ignore
    (D.atomically t ~thread (fun tx ->
         let c = D.read tx (D.root_base t) in
         let c1 = Int64.add c 1L in
         D.write tx (8 + (8 * (Int64.to_int c1 mod counter_slots))) c1;
         D.write tx (D.root_base t) c1))

let expected_slot ~durable i =
  (* Largest k <= durable with k mod counter_slots = i, or 0. *)
  if durable <= 0 then 0L
  else begin
    let m = ((durable - i) / counter_slots * counter_slots) + i in
    let m = if m > durable then m - counter_slots else m in
    if m >= 1 then Int64.of_int m else 0L
  end

let run_counter_workload ?(cfg = small_cfg ()) ~txs_per_thread () =
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         Sched.join ~label:"workload"
           (List.init cfg.Config.nthreads (fun th ->
                Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                    for _ = 1 to txs_per_thread do
                      counter_tx t th
                    done)));
         D.drain t;
         D.stop t));
  t

let test_pipeline_completes () =
  let t = run_counter_workload ~txs_per_thread:100 () in
  check Alcotest.int64 "counter equals committed txs" 300L (D.heap_read_u64 t (D.root_base t));
  check Alcotest.int "all durable" 300 (D.durable_id t);
  check Alcotest.int "all applied" 300 (D.applied_id t);
  check Alcotest.int64 "data persisted in NVM" 300L (Nvm.persisted_u64 (D.nvm t) 0)

let test_durable_monotone_contiguous () =
  let cfg = small_cfg () in
  let t = D.create cfg in
  let violations = ref 0 in
  ignore
    (Sched.run (fun () ->
         D.start t;
         let workers =
           List.init 3 (fun th ->
               Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                   for _ = 1 to 50 do
                     counter_tx t th
                   done))
         in
         ignore
           (Sched.spawn ~daemon:true "monitor" (fun () ->
                let last = ref 0 in
                while true do
                  let d = D.durable_id t in
                  if d < !last then incr violations;
                  if d > D.last_tid t then incr violations;
                  last := d;
                  Sched.advance 50
                done));
         Sched.join ~label:"done" workers;
         D.drain t;
         D.stop t));
  check Alcotest.int "durable id monotone and bounded by last tid" 0 !violations

let test_sync_mode_durable_at_return () =
  let cfg = small_cfg ~mode:Config.Sync () in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         Sched.join ~label:"done"
           (List.init 3 (fun th ->
                Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                    for _ = 1 to 20 do
                      (match
                         D.atomically t ~thread:th (fun tx ->
                             let c = D.read tx 0 in
                             D.write tx 0 (Int64.add c 1L))
                       with
                      | Some (_, tid) ->
                        if D.durable_id t < tid then
                          Alcotest.fail "Sync transaction returned before durable"
                      | None -> Alcotest.fail "unexpected abort")
                    done)));
         D.drain t;
         D.stop t));
  check Alcotest.int "all durable" 60 (D.durable_id t)

let test_inf_mode_never_blocks_producer () =
  let cfg = small_cfg ~mode:Config.Inf ~vlog_capacity:16 () in
  let t = run_counter_workload ~cfg ~txs_per_thread:100 () in
  check Alcotest.int "unbounded buffers never block" 0 (D.vlog_producer_blocks t)

let test_user_abort_no_side_effects () =
  let cfg = small_cfg () in
  let t = D.create cfg in
  let off1 = ref 0 in
  ignore
    (Sched.run (fun () ->
         D.start t;
         (match
            D.atomically t ~thread:0 (fun tx ->
                D.write tx 0 5L;
                ignore (D.pmalloc tx 64);
                D.abort tx)
          with
         | None -> ()
         | Some _ -> Alcotest.fail "abort should return None");
         check Alcotest.int64 "aborted write invisible" 0L (D.heap_read_u64 t 0);
         check Alcotest.int "no transaction committed" 0 (D.last_tid t);
         (* The aborted pmalloc was refunded: the next allocation gets the
            same offset... *)
         (match D.atomically t ~thread:0 (fun tx -> D.pmalloc tx 64) with
         | Some (o, _) -> off1 := o
         | None -> assert false);
         D.drain t;
         D.stop t));
  (* ...which is the offset a fresh instance would hand out first. *)
  let t2 = D.create cfg in
  let off2 = ref 0 in
  ignore
    (Sched.run (fun () ->
         D.start t2;
         (match D.atomically t2 ~thread:0 (fun tx -> D.pmalloc tx 64) with
         | Some (o, _) -> off2 := o
         | None -> assert false);
         D.drain t2;
         D.stop t2));
  check Alcotest.int "refunded allocation reused" !off2 !off1

let test_pmalloc_pfree_recycles () =
  let cfg = small_cfg () in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         let off =
           match D.atomically t ~thread:0 (fun tx -> D.pmalloc tx 128) with
           | Some (o, _) -> o
           | None -> assert false
         in
         (match D.atomically t ~thread:0 (fun tx -> D.pfree tx ~off ~len:128) with
         | Some _ -> ()
         | None -> assert false);
         (match D.atomically t ~thread:0 (fun tx -> D.pmalloc tx 128) with
         | Some (o, _) -> check Alcotest.int "freed block recycled" off o
         | None -> assert false);
         D.drain t;
         D.stop t))

let test_pmem_exhausted () =
  let cfg = small_cfg () in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         match
           D.atomically t ~thread:0 (fun tx -> ignore (D.pmalloc tx (1 lsl 21)))
         with
        | _ -> Alcotest.fail "expected Pmem_exhausted"
        | exception Dudetm_core.Dudetm.Pmem_exhausted -> ()))

(* --------------------------- crash/recovery -------------------------- *)

let crash_at ~cfg ~cycles ~evict ~seed =
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  while true do
                    counter_tx t th
                  done))
         done;
         Sched.advance cycles;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:evict ~rng:(Rng.create seed) (D.nvm t);
  let t2, report = D.attach cfg (D.nvm t) in
  (t, t2, report)

let verify_counter_state t2 (report : Dudetm_core.Dudetm.recovery_report) =
  let d = report.Dudetm_core.Dudetm.durable in
  let c = D.heap_read_u64 t2 (D.root_base t2) in
  if c <> Int64.of_int d then
    Alcotest.failf "counter %Ld but durable id %d (atomicity violated)" c d;
  for i = 0 to counter_slots - 1 do
    let v = D.heap_read_u64 t2 (8 + (8 * i)) in
    let e = expected_slot ~durable:d i in
    if v <> e then Alcotest.failf "slot %d: got %Ld, expected %Ld (durable %d)" i v e d
  done

let test_crash_recover_basic () =
  let cfg = small_cfg () in
  let _, t2, report = crash_at ~cfg ~cycles:120_000 ~evict:0.0 ~seed:1 in
  check Alcotest.bool "some transactions recovered" true (report.Dudetm_core.Dudetm.durable > 0);
  verify_counter_state t2 report

let test_crash_recover_continue () =
  (* After recovery, new transactions extend the recovered state and
     survive a second crash. *)
  let cfg = small_cfg () in
  let _, t2, report = crash_at ~cfg ~cycles:100_000 ~evict:0.3 ~seed:2 in
  verify_counter_state t2 report;
  let d = report.Dudetm_core.Dudetm.durable in
  ignore
    (Sched.run (fun () ->
         D.start t2;
         Sched.join ~label:"done"
           (List.init cfg.Config.nthreads (fun th ->
                Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                    for _ = 1 to 10 do
                      counter_tx t2 th
                    done)));
         D.drain t2;
         D.stop t2));
  check Alcotest.int64 "counter extended past recovery point"
    (Int64.of_int (d + 30))
    (D.heap_read_u64 t2 (D.root_base t2));
  Nvm.crash (D.nvm t2);
  let t3, report3 = D.attach cfg (D.nvm t2) in
  check Alcotest.int "second recovery sees all txs" (d + 30) report3.Dudetm_core.Dudetm.durable;
  verify_counter_state t3 report3

(* A handle used after its attempt ends raises before any side effect.
   A stale write used to reach the thread's volatile log before the TM
   refused it, so the orphan entry committed inside the thread's next
   transaction and recovery brought [8192] back as 666; a stale pmalloc
   reserved heap space and logged an Alloc entry the same way. *)
let test_stale_handle_leaves_no_trace () =
  let cfg = small_cfg () in
  let t = D.create cfg in
  let stale f =
    match f () with
    | _ -> Alcotest.fail "a stale handle was accepted"
    | exception Invalid_argument _ -> ()
  in
  let first = ref 0 and next = ref 0 in
  ignore
    (Sched.run (fun () ->
         D.start t;
         (match D.atomically t ~thread:0 (fun tx -> D.pmalloc tx 64) with
         | Some (off, _) -> first := off
         | None -> assert false);
         let kept = ref None in
         ignore
           (D.atomically t ~thread:0 (fun tx ->
                kept := Some tx;
                D.write tx 4096 1L));
         let tx = Option.get !kept in
         stale (fun () -> D.write tx 8192 666L);
         stale (fun () -> ignore (D.pmalloc tx 64));
         stale (fun () -> D.pfree tx ~off:!first ~len:64);
         stale (fun () -> ignore (D.read tx 4096));
         stale (fun () -> D.abort tx);
         (match
            D.atomically t ~thread:0 (fun tx ->
                D.write tx 4104 2L;
                D.pmalloc tx 64)
          with
         | Some (off, _) -> next := off
         | None -> assert false);
         D.drain t;
         D.stop t));
  check Alcotest.int64 "the stale write never reached the heap" 0L (D.heap_read_u64 t 8192);
  check Alcotest.int64 "the stale abort restored nothing" 1L (D.heap_read_u64 t 4096);
  check Alcotest.int "the stale pmalloc reserved nothing" (!first + 64) !next;
  Nvm.crash (D.nvm t);
  let t2, _ = D.attach cfg (D.nvm t) in
  check Alcotest.int64 "nor did recovery replay it" 0L (D.heap_read_u64 t2 8192);
  check Alcotest.int64 "the next transaction survived" 2L (D.heap_read_u64 t2 4104)

(* A stale read on a paged engine pins no shadow frame: with two frames,
   two pinned-forever pages would leave a later transaction waiting for a
   frame that never frees. *)
let test_stale_read_pins_nothing () =
  let cfg = small_cfg ~shadow_frames:2 () in
  let t = D.create cfg in
  let scfg = Dudetm_shadow.Shadow.default_config cfg.Config.shadow_mode ~frames:2 in
  let page = 1 lsl scfg.Dudetm_shadow.Shadow.page_bits in
  ignore
    (Sched.run (fun () ->
         D.start t;
         let kept = ref None in
         ignore (D.atomically t ~thread:0 (fun tx -> kept := Some tx));
         let tx = Option.get !kept in
         for p = 1 to 2 do
           match D.read tx (p * page) with
           | _ -> Alcotest.fail "a stale read was accepted"
           | exception Invalid_argument _ -> ()
         done;
         ignore
           (D.atomically t ~thread:0 (fun tx ->
                D.write tx (3 * page) 3L;
                D.write tx (4 * page) 4L));
         D.drain t;
         D.stop t));
  check Alcotest.int64 "both frames were free" 4L (D.heap_read_u64 t (4 * page))

(* A thread's volatile log and attempt slots hold one transaction (and
   one snapshot) at a time: a nested one on the same engine and thread is
   refused, while a snapshot inside a read-write transaction runs. *)
let test_nested_on_one_thread () =
  let t = D.create (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         D.start t;
         let refused f =
           match f () with
           | _ -> Alcotest.fail "a nested transaction was accepted"
           | exception Invalid_argument _ -> ()
         in
         ignore
           (D.atomically t ~thread:0 (fun tx ->
                D.write tx 4096 1L;
                refused (fun () -> D.atomically t ~thread:0 (fun tx -> D.write tx 4104 2L));
                match D.atomically_ro t ~thread:0 (fun ro -> D.read ro 64) with
                | Some _ ->
                  refused (fun () ->
                      D.atomically_ro t ~thread:0 (fun _ ->
                          D.atomically_ro t ~thread:0 (fun ro -> D.read ro 64)))
                | None -> Alcotest.fail "snapshot aborted"));
         D.drain t;
         D.stop t));
  check Alcotest.int64 "the outer transaction committed" 1L (D.heap_read_u64 t 4096);
  check Alcotest.int64 "the refused one left nothing" 0L (D.heap_read_u64 t 4104)

let test_recovery_empty_instance () =
  let cfg = small_cfg () in
  let t = D.create cfg in
  Nvm.crash (D.nvm t);
  let t2, report = D.attach cfg (D.nvm t) in
  check Alcotest.int "nothing to recover" 0 report.Dudetm_core.Dudetm.durable;
  check Alcotest.int64 "heap empty" 0L (D.heap_read_u64 t2 0)

let prop_crash_consistency =
  QCheck2.Test.make ~name:"dudetm: crash consistency at random points (STM)" ~count:25
    QCheck2.Gen.(tup3 (int_range 500 600_000) (float_range 0.0 1.0) (int_range 0 10_000))
    (fun (cycles, evict, seed) ->
      let cfg = small_cfg () in
      let _, t2, report = crash_at ~cfg ~cycles ~evict ~seed in
      verify_counter_state t2 report;
      true)

let prop_crash_consistency_combined =
  QCheck2.Test.make ~name:"dudetm: crash consistency with combination+compression" ~count:15
    QCheck2.Gen.(tup3 (int_range 500 400_000) (float_range 0.0 1.0) (int_range 0 10_000))
    (fun (cycles, evict, seed) ->
      let cfg =
        small_cfg ~persist:(Config.Combined { group = 8; compress = true }) ~plog_size:(1 lsl 16) ()
      in
      let _, t2, report = crash_at ~cfg ~cycles ~evict ~seed in
      verify_counter_state t2 report;
      true)

let prop_crash_consistency_paged =
  QCheck2.Test.make ~name:"dudetm: crash consistency with a paged shadow" ~count:10
    QCheck2.Gen.(tup3 (int_range 500 400_000) (float_range 0.0 1.0) (int_range 0 10_000))
    (fun (cycles, evict, seed) ->
      let cfg = small_cfg ~shadow_frames:16 () in
      let _, t2, report = crash_at ~cfg ~cycles ~evict ~seed in
      verify_counter_state t2 report;
      true)

let prop_crash_consistency_sync =
  QCheck2.Test.make ~name:"dudetm: crash consistency in Sync mode" ~count:10
    QCheck2.Gen.(tup3 (int_range 500 400_000) (float_range 0.0 1.0) (int_range 0 10_000))
    (fun (cycles, evict, seed) ->
      let cfg = small_cfg ~mode:Config.Sync () in
      let _, t2, report = crash_at ~cfg ~cycles ~evict ~seed in
      verify_counter_state t2 report;
      true)

(* Torn-tail recovery: crash, then corrupt the tail record of a chosen
   subset of the per-thread plog rings in the persisted image.  Recovery
   must discard exactly the torn suffix of each corrupted ring and land on
   the durable ID recomputed from the surviving records — never accept a
   torn record, never discard a valid one. *)
let crash_no_attach ~cfg ~cycles ~seed =
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  while true do
                    counter_tx t th
                  done))
         done;
         Sched.advance cycles;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:0.0 ~rng:(Rng.create seed) (D.nvm t);
  t

let prop_torn_tail_recovery =
  QCheck2.Test.make
    ~name:"dudetm: torn plog tails discard exactly the torn suffix" ~count:20
    QCheck2.Gen.(tup3 (int_range 2_000 150_000) (int_range 0 10_000) (int_range 1 7))
    (fun (cycles, seed, mask) ->
      let cfg = small_cfg () in
      let t = crash_no_attach ~cfg ~cycles ~seed in
      let nvm = D.nvm t in
      let module IS = Set.Make (Int) in
      let surviving = ref IS.empty in
      let record_tids (r : Dudetm_log.Plog.record) =
        let p = r.Dudetm_log.Plog.payload in
        if Bytes.get p 0 <> 'P' then Alcotest.fail "unexpected payload flag";
        Log_list.tids (Dudetm_log.Log_entry.decode_payload p)
      in
      let dcap = cfg.Config.plog_size - Dudetm_log.Plog.header_size in
      (* A record may only tear while its transactions are still waiting to
         be reproduced: once Reproduce has persisted a transaction's writes
         to their home locations, its record is durable history.  Corrupting
         such a record would fake a physically impossible crash, so bound
         the corruption by the largest tid with persisted home effects. *)
      let persisted_max = ref (Int64.to_int (Nvm.persisted_u64 nvm 0)) in
      for i = 0 to counter_slots - 1 do
        persisted_max :=
          max !persisted_max (Int64.to_int (Nvm.persisted_u64 nvm (8 + (8 * i))))
      done;
      for ring = 0 to Config.plog_regions cfg - 1 do
        let base = Config.plog_base cfg ring in
        let _, scan = Dudetm_log.Plog.attach_scan nvm ~base ~size:cfg.Config.plog_size in
        check Alcotest.bool "ring header intact" false scan.Dudetm_log.Plog.header_lost;
        let records = scan.Dudetm_log.Plog.records in
        let corrupt = mask land (1 lsl ring) <> 0 in
        let rec keep = function
          | [] -> ()
          | [ last ]
            when corrupt
                 && List.for_all
                      (fun tid -> tid > !persisted_max)
                      (record_tids last) ->
            (* Flip the tail record's last payload byte in the persisted
               image: its CRC fails and recovery must treat it as torn. *)
            let off =
              base + Dudetm_log.Plog.header_size
              + ((last.Dudetm_log.Plog.end_off - 1) mod dcap)
            in
            flip_byte nvm off;
            Nvm.persist nvm ~off ~len:1
          | r :: rest ->
            List.iter (fun tid -> surviving := IS.add tid !surviving) (record_tids r);
            keep rest
        in
        keep records
      done;
      let _, st =
        Dudetm_core.Checkpoint.attach nvm ~base:(Config.meta_base cfg)
          ~size:cfg.Config.meta_size
      in
      let c = st.Dudetm_core.Checkpoint.reproduced_upto in
      let rec ext d = if IS.mem (d + 1) !surviving then ext (d + 1) else d in
      let expected = ext c in
      let t2, report = D.attach cfg nvm in
      if report.Dudetm_core.Dudetm.durable <> expected then
        Alcotest.failf
          "recovered durable %d, expected %d after torn tails (mask %d, checkpoint %d)"
          report.Dudetm_core.Dudetm.durable expected mask c;
      verify_counter_state t2 report;
      true)

let test_acknowledged_txs_survive () =
  (* Durability acknowledgement is binding: any tid at or below the
     durable ID observed before the crash must survive it. *)
  let cfg = small_cfg () in
  let t = D.create cfg in
  let acked = ref 0 in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  while true do
                    counter_tx t th;
                    acked := max !acked (D.durable_id t)
                  done))
         done;
         Sched.advance 80_000;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:0.0 ~rng:(Rng.create 3) (D.nvm t);
  let _, report = D.attach cfg (D.nvm t) in
  check Alcotest.bool "acknowledged prefix survived" true
    (report.Dudetm_core.Dudetm.durable >= !acked)

let test_crash_with_allocations () =
  (* Linked-list append workload: every durable cell must be reachable and
     the allocator must not hand out overlapping blocks after recovery. *)
  let cfg = small_cfg ~nthreads:2 () in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for th = 0 to 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  while true do
                    ignore
                      (D.atomically t ~thread:th (fun tx ->
                           let head = D.read tx (D.root_base t) in
                           let cell = D.pmalloc tx 16 in
                           D.write tx (cell + 8) head;
                           let n = D.read tx 8 in
                           D.write tx cell (Int64.add n 1L);
                           D.write tx 8 (Int64.add n 1L);
                           D.write tx (D.root_base t) (Int64.of_int cell)))
                  done))
         done;
         Sched.advance 150_000;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:0.4 ~rng:(Rng.create 9) (D.nvm t);
  let t2, _ = D.attach cfg (D.nvm t) in
  (* Walk the recovered list; cells hold distinct values n..1. *)
  let expected_len = Int64.to_int (D.heap_read_u64 t2 8) in
  let rec walk cell seen =
    if cell = 0 then seen
    else walk (Int64.to_int (D.heap_read_u64 t2 (cell + 8))) (seen + 1)
  in
  let len = walk (Int64.to_int (D.heap_read_u64 t2 (D.root_base t2))) 0 in
  check Alcotest.int "recovered list length matches durable counter" expected_len len;
  (* New allocations must not overlap recovered cells: append more and
     re-walk. *)
  ignore
    (Sched.run (fun () ->
         D.start t2;
         for _ = 1 to 20 do
           ignore
             (D.atomically t2 ~thread:0 (fun tx ->
                  let head = D.read tx (D.root_base t2) in
                  let cell = D.pmalloc tx 16 in
                  D.write tx (cell + 8) head;
                  let n = D.read tx 8 in
                  D.write tx cell (Int64.add n 1L);
                  D.write tx 8 (Int64.add n 1L);
                  D.write tx (D.root_base t2) (Int64.of_int cell)))
         done;
         D.drain t2;
         D.stop t2));
  let len2 = walk (Int64.to_int (D.heap_read_u64 t2 (D.root_base t2))) 0 in
  check Alcotest.int "list extended cleanly after recovery" (expected_len + 20) len2

let test_htm_backend_pipeline () =
  (* The same engine runs over the simulated HTM (out-of-the-box TM). *)
  let cfg = small_cfg () in
  let t = Dh.create cfg in
  ignore
    (Sched.run (fun () ->
         Dh.start t;
         Sched.join ~label:"done"
           (List.init 3 (fun th ->
                Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                    for _ = 1 to 50 do
                      ignore
                        (Dh.atomically t ~thread:th (fun tx ->
                             let c = Dh.read tx 0 in
                             Dh.write tx 0 (Int64.add c 1L)))
                    done)));
         Dh.drain t;
         Dh.stop t));
  check Alcotest.int64 "HTM-backed counter correct" 150L (Dh.heap_read_u64 t 0);
  check Alcotest.int64 "HTM-backed data persisted" 150L (Nvm.persisted_u64 (Dh.nvm t) 0)

let test_htm_crash_recovery () =
  let cfg = small_cfg () in
  let t = Dh.create cfg in
  ignore
    (Sched.run (fun () ->
         Dh.start t;
         for th = 0 to 2 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  while true do
                    ignore
                      (Dh.atomically t ~thread:th (fun tx ->
                           let c = Dh.read tx 0 in
                           Dh.write tx 0 (Int64.add c 1L)))
                  done))
         done;
         Sched.advance 90_000;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create 6) (Dh.nvm t);
  let t2, report = Dh.attach cfg (Dh.nvm t) in
  check Alcotest.int64 "HTM recovery: counter equals durable id"
    (Int64.of_int report.Dudetm_core.Dudetm.durable)
    (Dh.heap_read_u64 t2 0)

let test_stats_populated () =
  let t = run_counter_workload ~txs_per_thread:50 () in
  let s = D.stats t in
  check Alcotest.int "txs counted" 150 (Stats.get s "txs");
  (* Two writes per committed transaction, plus entries from aborted
     attempts (appended, then popped). *)
  check Alcotest.bool "log entries cover all committed writes" true
    (Stats.get s "log_entries" >= 300);
  check Alcotest.bool "flush records created" true (Stats.get s "flush_records" > 0)

let suite =
  [
    Alcotest.test_case "pipeline completes and persists" `Quick test_pipeline_completes;
    Alcotest.test_case "durable id monotone and contiguous" `Quick
      test_durable_monotone_contiguous;
    Alcotest.test_case "Sync mode is durable at return" `Quick test_sync_mode_durable_at_return;
    Alcotest.test_case "Inf mode never blocks the producer" `Quick
      test_inf_mode_never_blocks_producer;
    Alcotest.test_case "user abort leaves no trace" `Quick test_user_abort_no_side_effects;
    Alcotest.test_case "pmalloc/pfree recycle blocks" `Quick test_pmalloc_pfree_recycles;
    Alcotest.test_case "pmalloc exhaustion raises" `Quick test_pmem_exhausted;
    Alcotest.test_case "crash and recover" `Quick test_crash_recover_basic;
    Alcotest.test_case "recover, continue, crash again" `Quick test_crash_recover_continue;
    Alcotest.test_case "recovery of an empty instance" `Quick test_recovery_empty_instance;
    Alcotest.test_case "a stale handle leaves no trace" `Quick test_stale_handle_leaves_no_trace;
    Alcotest.test_case "a stale read pins no frame" `Quick test_stale_read_pins_nothing;
    Alcotest.test_case "one transaction per thread and engine" `Quick test_nested_on_one_thread;
    QCheck_alcotest.to_alcotest prop_crash_consistency;
    QCheck_alcotest.to_alcotest prop_crash_consistency_combined;
    QCheck_alcotest.to_alcotest prop_crash_consistency_paged;
    QCheck_alcotest.to_alcotest prop_crash_consistency_sync;
    QCheck_alcotest.to_alcotest prop_torn_tail_recovery;
    Alcotest.test_case "acknowledged transactions survive" `Quick test_acknowledged_txs_survive;
    Alcotest.test_case "crash with allocations" `Quick test_crash_with_allocations;
    Alcotest.test_case "HTM backend pipeline" `Quick test_htm_backend_pipeline;
    Alcotest.test_case "HTM backend crash recovery" `Quick test_htm_crash_recovery;
    Alcotest.test_case "engine statistics" `Quick test_stats_populated;
  ]
