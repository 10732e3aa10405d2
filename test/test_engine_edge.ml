(* Engine edge cases: whole-pipeline determinism, tiny rings under
   pressure, checkpoint-interval sweeps, config validation, repeated
   crash/recovery chains, and paging + recovery interaction. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

let base_cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 20;
    nthreads = 3;
    vlog_capacity = 512;
    plog_size = 1 lsl 14;
  }

let counter_tx t thread =
  ignore
    (D.atomically t ~thread (fun tx ->
         let c = D.read tx 0 in
         let c1 = Int64.add c 1L in
         D.write tx (8 + (8 * (Int64.to_int c1 land 127))) c1;
         D.write tx 0 c1))

let run_fixed cfg ~txs_per_thread =
  let t = D.create cfg in
  let cycles =
    Sched.run (fun () ->
        D.start t;
        Sched.join ~label:"done"
          (List.init cfg.Config.nthreads (fun th ->
               Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                   for _ = 1 to txs_per_thread do
                     counter_tx t th
                   done)));
        D.drain t;
        D.stop t)
  in
  (t, cycles)

let test_whole_engine_deterministic () =
  let _, c1 = run_fixed base_cfg ~txs_per_thread:100 in
  let _, c2 = run_fixed base_cfg ~txs_per_thread:100 in
  check Alcotest.int "identical runs take identical simulated time" c1 c2

let test_tiny_rings_under_pressure () =
  (* Volatile ring of 16 entries, persistent ring of 4 KiB: both rings
     recycle constantly and the run still completes correctly. *)
  let cfg = { base_cfg with Config.vlog_capacity = 16; plog_size = 4096 } in
  let t, _ = run_fixed cfg ~txs_per_thread:150 in
  check Alcotest.int64 "counter correct despite tiny rings" 450L (D.heap_read_u64 t 0);
  check Alcotest.int64 "persisted too" 450L (Nvm.persisted_u64 (D.nvm t) 0)

let test_checkpoint_interval_sweep () =
  List.iter
    (fun interval ->
      let cfg = { base_cfg with Config.checkpoint_records = interval } in
      let t, _ = run_fixed cfg ~txs_per_thread:80 in
      Nvm.crash (D.nvm t);
      let t2, report = D.attach cfg (D.nvm t) in
      check Alcotest.int
        (Printf.sprintf "durable complete at checkpoint interval %d" interval)
        240 report.Dudetm_core.Dudetm.durable;
      check Alcotest.int64 "state complete" 240L (D.heap_read_u64 t2 0))
    [ 1; 4; 64 ]

let test_repeated_crash_chain () =
  (* Crash, recover, run, crash, recover, ... five generations. *)
  let cfg = base_cfg in
  let t = ref (D.create cfg) in
  let expect = ref 0 in
  for gen = 1 to 5 do
    ignore
      (Sched.run (fun () ->
           D.start !t;
           for th = 0 to cfg.Config.nthreads - 1 do
             ignore
               (Sched.spawn (Printf.sprintf "g%d-w%d" gen th) (fun () ->
                    while true do
                      counter_tx !t th
                    done))
           done;
           Sched.advance (40_000 * gen);
           Sched.halt ()));
    Nvm.crash ~evict_fraction:0.3 ~rng:(Rng.create gen) (D.nvm !t);
    let t2, report = D.attach cfg (D.nvm !t) in
    let d = report.Dudetm_core.Dudetm.durable in
    check Alcotest.bool
      (Printf.sprintf "generation %d made progress" gen)
      true (d > !expect);
    check Alcotest.int64
      (Printf.sprintf "generation %d state matches durable id" gen)
      (Int64.of_int d) (D.heap_read_u64 t2 0);
    expect := d;
    t := t2
  done

(* Touch 48 distinct pages so a 16-frame shadow must page constantly. *)
let paged_tx t thread =
  ignore
    (D.atomically t ~thread (fun tx ->
         let c = D.read tx 0 in
         let c1 = Int64.add c 1L in
         D.write tx (4096 * (1 + (Int64.to_int c1 mod 48))) c1;
         D.write tx 0 c1))

let test_paged_shadow_pipeline_and_recovery () =
  (* 16-frame shadow over a 48-page working set: constant paging during
     the run, then crash + recovery; the recovered state must match. *)
  let cfg = { base_cfg with Config.shadow_frames = Some 16 } in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         Sched.join ~label:"done"
           (List.init 3 (fun th ->
                Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                    for _ = 1 to 120 do
                      paged_tx t th
                    done)));
         D.drain t;
         D.stop t));
  check Alcotest.int64 "paged run correct" 360L (D.heap_read_u64 t 0);
  (match D.shadow_stats t with
  | Some s ->
    check Alcotest.bool "paging actually happened" true
      (Dudetm_sim.Stats.get s "evictions" > 0)
  | None -> Alcotest.fail "expected a paged shadow");
  Nvm.crash (D.nvm t);
  let t2, report = D.attach cfg (D.nvm t) in
  check Alcotest.int "all durable after drain" 360 report.Dudetm_core.Dudetm.durable;
  check Alcotest.int64 "recovered state" 360L (D.heap_read_u64 t2 0)

let test_paged_poisoned_read () =
  (* A read that faults in a page over a poisoned clean line surfaces the
     media error, in a snapshot and in a read-write attempt alike; the
     failed fault leaves no pin for the attempt's cleanup to undo, and once
     the line is rewritten the same reads succeed. *)
  let cfg = { base_cfg with Config.shadow_frames = Some 16 } in
  let t = D.create cfg in
  let nvm = D.nvm t in
  let ls = Nvm.line_size nvm in
  let addr = 5 * 4096 in
  let bad = addr / ls in
  Nvm.inject_fault nvm (Nvm.Poison { line = bad });
  let ro () = D.atomically_ro t ~thread:0 (fun tx -> D.read tx addr) in
  let rw () = D.atomically t ~thread:0 (fun tx -> D.read tx addr) in
  let run read =
    let r = ref None in
    ignore (Sched.run (fun () -> r := Option.map fst (read ())));
    !r
  in
  List.iter
    (fun (name, read) ->
      Alcotest.check_raises name (Nvm.Media_error (bad * ls)) (fun () -> ignore (run read)))
    [ ("snapshot read raises", ro); ("read-write read raises", rw) ];
  for w = 0 to (ls / 8) - 1 do
    Nvm.store_u64 nvm ((bad * ls) + (w * 8)) 7L
  done;
  Nvm.persist nvm ~off:0 ~len:(Nvm.size nvm);
  check Alcotest.(list (option int64)) "both reads after repair" [ Some 7L; Some 7L ] [ run ro; run rw ]

let test_combined_group_sizes () =
  List.iter
    (fun group ->
      let cfg =
        {
          base_cfg with
          Config.persist = Config.Combined { group; compress = true };
          plog_size = 1 lsl 16;
        }
      in
      let t, _ = run_fixed cfg ~txs_per_thread:100 in
      check Alcotest.int64
        (Printf.sprintf "combined group %d completes" group)
        300L (D.heap_read_u64 t 0);
      check Alcotest.int
        (Printf.sprintf "all durable at group %d" group)
        300 (D.durable_id t))
    [ 2; 16; 128 ]

let per_thread ~daemons = Config.Per_thread { daemons; min_entries = 4; max_entries = 16 }

let combined ~compress = Config.Combined { group = 4; compress }

(* Golden persist-policy runs: one fixed workload under every Persist
   policy, pinned to its exact durable ID, record and payload counts, batch
   cut reasons and NVM persisted bytes.  The simulator is deterministic, so
   any drift is a behaviour change in the Persist step. *)
let test_persist_policy_golden () =
  List.iter
    (fun (name, cfg, golden) ->
      let t, _ = run_fixed cfg ~txs_per_thread:100 in
      let g = Dudetm_sim.Stats.get (D.stats t) in
      check
        Alcotest.(list int)
        (name ^ ": durable, records, payload bytes, size/deadline/drain flushes, NVM bytes")
        golden
        [
          D.durable_id t; g "flush_records"; g "flush_payload_bytes"; g "batch_size_flushes";
          g "batch_deadline_flushes"; g "batch_drain_flushes";
          Nvm.persisted_write_bytes (D.nvm t);
        ])
    [
      ( "per-thread, 1 daemon",
        { base_cfg with Config.persist = per_thread ~daemons:1 },
        [ 300; 110; 13010; 81; 29; 0; 39058 ] );
      ( "per-thread, 2 daemons",
        { base_cfg with Config.persist = per_thread ~daemons:2 },
        [ 300; 113; 13013; 78; 34; 1; 39189 ] );
      ( "combined group 4",
        { base_cfg with Config.persist = combined ~compress:false },
        [ 300; 76; 9168; 74; 1; 1; 32056 ] );
      ( "combined group 4, compressed",
        { base_cfg with Config.persist = combined ~compress:true },
        [ 300; 76; 4750; 74; 1; 1; 27638 ] );
      ("sync", { base_cfg with Config.mode = Config.Sync }, [ 300; 300; 13200; 0; 0; 0; 47592 ]);
    ]

let test_config_validation () =
  let reject msg cfg = Alcotest.check_raises msg (Invalid_argument "dummy") (fun () ->
      try Config.validate cfg
      with Config.Invalid_config _ -> raise (Invalid_argument "dummy"))
  in
  let bounds min_entries max_entries =
    Config.Per_thread { daemons = 1; min_entries; max_entries }
  in
  reject "unaligned heap" { base_cfg with Config.heap_size = 12345 };
  reject "sync with combine"
    { base_cfg with Config.mode = Config.Sync; persist = combined ~compress:false };
  Dudetm_sim.Inject.with_ ~mutant:Skip_batch_seal (fun () ->
      reject "Skip_batch_seal with per-thread persist" base_cfg);
  reject "group below one"
    { base_cfg with Config.persist = Config.Combined { group = 0; compress = false } };
  reject "entry cap below floor" { base_cfg with Config.persist = bounds 8 4 };
  reject "entry floor below one" { base_cfg with Config.persist = bounds 0 4 };
  reject "zero persist daemons" { base_cfg with Config.persist = per_thread ~daemons:0 };
  reject "zero threads" { base_cfg with Config.nthreads = 0 };
  Config.validate base_cfg (* the base must be valid *)

let test_bad_thread_index_rejected () =
  let t = D.create base_cfg in
  Alcotest.check_raises "thread index out of range"
    (Invalid_argument "Dudetm.atomically: bad thread index") (fun () ->
      ignore (D.atomically t ~thread:99 (fun _ -> ())))

let test_attach_wrong_size_rejected () =
  let t = D.create base_cfg in
  let other = { base_cfg with Config.nthreads = 7 } in
  Alcotest.check_raises "device/config mismatch rejected"
    (Invalid_argument "Dudetm.attach: device size does not match the configuration")
    (fun () -> ignore (D.attach other (D.nvm t)))

let suite =
  [
    Alcotest.test_case "whole-engine determinism" `Quick test_whole_engine_deterministic;
    Alcotest.test_case "tiny rings under pressure" `Quick test_tiny_rings_under_pressure;
    Alcotest.test_case "checkpoint interval sweep" `Quick test_checkpoint_interval_sweep;
    Alcotest.test_case "repeated crash chain" `Quick test_repeated_crash_chain;
    Alcotest.test_case "paged shadow pipeline and recovery" `Quick
      test_paged_shadow_pipeline_and_recovery;
    Alcotest.test_case "paged read of a poisoned line raises" `Quick test_paged_poisoned_read;
    Alcotest.test_case "combined group sizes" `Quick test_combined_group_sizes;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "golden persist-policy runs" `Quick test_persist_policy_golden;
    Alcotest.test_case "bad thread index rejected" `Quick test_bad_thread_index_rejected;
    Alcotest.test_case "attach with wrong config rejected" `Quick
      test_attach_wrong_size_rejected;
  ]
