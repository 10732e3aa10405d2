(* Baseline systems (Volatile-STM, Mnemosyne, NVML) and the common PTM
   interface: correctness, durability semantics, static-transaction
   discipline, and cross-system agreement on the same workload. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module Ptm = B.Ptm_intf

let check = Alcotest.check

let heap = 4 * 1024 * 1024

let systems () =
  [
    fst (B.Dude_ptm.Stm.ptm { Config.default with Config.heap_size = heap; nthreads = 4 });
    B.Volatile_stm.ptm ~heap_size:heap ();
    B.Volatile_stm.ptm_htm ~heap_size:heap ();
    B.Mnemosyne.ptm { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = heap };
    B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = heap };
  ]

(* Run the same concurrent counter workload on every system; all must
   agree on the final state. *)
let counter_on (ptm : Ptm.t) =
  let per = 50 in
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         Sched.join ~label:"counter"
           (List.init 4 (fun th ->
                Sched.spawn (string_of_int th) (fun () ->
                    for _ = 1 to per do
                      let wset = if ptm.Ptm.requires_static then Some [ 0 ] else None in
                      (match
                         ptm.Ptm.atomically ~thread:th ?wset (fun tx ->
                             tx.Ptm.write 0 (Int64.add (tx.Ptm.read 0) 1L))
                       with
                      | Some _ -> ()
                      | None -> Alcotest.fail "unexpected abort")
                    done)));
         ptm.Ptm.drain ();
         ptm.Ptm.stop ()));
  ptm.Ptm.peek 0

let test_all_systems_agree () =
  List.iter
    (fun ptm ->
      check Alcotest.int64
        (ptm.Ptm.name ^ ": counter equals committed increments")
        200L (counter_on ptm))
    (systems ())

let test_durability_semantics () =
  (* Synchronous systems are durable at commit; all systems' durable id
     reaches last tid after drain. *)
  List.iter
    (fun ptm ->
      ignore (counter_on ptm);
      check Alcotest.int
        (ptm.Ptm.name ^ ": durable catches up with last tid")
        (ptm.Ptm.last_tid ()) (ptm.Ptm.durable_id ()))
    (systems ())

let test_abort_rolls_back_everywhere () =
  List.iter
    (fun ptm ->
      ignore
        (Sched.run (fun () ->
             ptm.Ptm.start ();
             let wset = if ptm.Ptm.requires_static then Some [ 0; 8 ] else None in
             (match
                ptm.Ptm.atomically ~thread:0 ?wset (fun tx ->
                    tx.Ptm.write 0 1L;
                    tx.Ptm.write 8 2L;
                    tx.Ptm.abort ())
              with
             | None -> ()
             | Some _ -> Alcotest.fail (ptm.Ptm.name ^ ": abort returned Some"));
             ptm.Ptm.drain ();
             ptm.Ptm.stop ()));
      check Alcotest.int64 (ptm.Ptm.name ^ ": write 1 rolled back") 0L (ptm.Ptm.peek 0);
      check Alcotest.int64 (ptm.Ptm.name ^ ": write 2 rolled back") 0L (ptm.Ptm.peek 8))
    (systems ())

(* --------------------------- Mnemosyne-only -------------------------- *)

let test_mnemosyne_data_reaches_nvm () =
  let ptm = B.Mnemosyne.ptm { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = heap } in
  ignore
    (Sched.run (fun () ->
         (match ptm.Ptm.atomically ~thread:0 (fun tx -> tx.Ptm.write 0 77L) with
         | Some _ -> ()
         | None -> assert false)));
  let nvm = Option.get ptm.Ptm.nvm in
  check Alcotest.int64 "in-place update applied" 77L (Nvm.load_u64 nvm 0);
  check Alcotest.bool "redo log persisted synchronously" true (Nvm.persisted_write_bytes nvm > 0)

let test_mnemosyne_read_own_writes () =
  let ptm = B.Mnemosyne.ptm { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = heap } in
  match
    ptm.Ptm.atomically ~thread:0 (fun tx ->
        tx.Ptm.write 0 5L;
        tx.Ptm.read 0)
  with
  | Some (v, _) -> check Alcotest.int64 "write-back redirection" 5L v
  | None -> Alcotest.fail "aborted"

let test_mnemosyne_log_truncates () =
  let cfg =
    { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = heap; log_size = 1 lsl 12 }
  in
  let ptm = B.Mnemosyne.ptm cfg in
  ignore
    (Sched.run (fun () ->
         for i = 0 to 600 do
           match
             ptm.Ptm.atomically ~thread:0 (fun tx -> tx.Ptm.write (8 * (i mod 50)) 1L)
           with
           | Some _ -> ()
           | None -> assert false
         done));
  check Alcotest.bool "tiny log forced truncations" true
    (List.assoc "log_truncations" (ptm.Ptm.counters ()) > 0)

(* ----------------------------- NVML-only ----------------------------- *)

let test_nvml_rejects_undeclared_write () =
  let ptm = B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = heap } in
  Alcotest.check_raises "undeclared write rejected"
    (Invalid_argument "Nvml: write outside the declared write set") (fun () ->
      ignore (ptm.Ptm.atomically ~thread:0 ~wset:[ 0 ] (fun tx -> tx.Ptm.write 8 1L)))

let test_nvml_undo_restores_on_abort () =
  let ptm = B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = heap } in
  ignore (ptm.Ptm.atomically ~thread:0 ~wset:[ 0 ] (fun tx -> tx.Ptm.write 0 10L));
  (match
     ptm.Ptm.atomically ~thread:0 ~wset:[ 0 ] (fun tx ->
         tx.Ptm.write 0 99L;
         tx.Ptm.abort ())
   with
  | None -> ()
  | Some _ -> Alcotest.fail "abort returned Some");
  check Alcotest.int64 "undo restored the old value" 10L (ptm.Ptm.peek 0);
  let nvm = Option.get ptm.Ptm.nvm in
  check Alcotest.int64 "restored value is persistent" 10L (Nvm.persisted_u64 nvm 0)

let test_nvml_locks_serialize () =
  (* Two threads incrementing under the same declared lock never lose an
     update. *)
  let ptm = B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = heap } in
  ignore
    (Sched.run (fun () ->
         for th = 0 to 3 do
           ignore
             (Sched.spawn (string_of_int th) (fun () ->
                  for _ = 1 to 25 do
                    ignore
                      (ptm.Ptm.atomically ~thread:th ~wset:[ 0 ] (fun tx ->
                           tx.Ptm.write 0 (Int64.add (tx.Ptm.read 0) 1L)))
                  done))
         done));
  check Alcotest.int64 "lock-based increments all applied" 100L (ptm.Ptm.peek 0)

let test_nvml_commit_is_durable () =
  let ptm = B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = heap } in
  ignore (ptm.Ptm.atomically ~thread:0 ~wset:[ 0 ] (fun tx -> tx.Ptm.write 0 3L));
  let nvm = Option.get ptm.Ptm.nvm in
  Nvm.crash nvm;
  check Alcotest.int64 "committed NVML data survives a crash" 3L (Nvm.load_u64 nvm 0)

(* --------------------------- crash recovery -------------------------- *)

let test_mnemosyne_recovery () =
  (* Commit transactions, crash mid-run with evictions, recover: the redo
     logs reconstruct every committed transaction; torn tails are
     dropped. *)
  let t = B.Mnemosyne.create { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = heap } in
  let ptm = B.Mnemosyne.ptm_of t in
  ignore
    (Sched.run (fun () ->
         for th = 0 to 3 do
           ignore
             (Sched.spawn (string_of_int th) (fun () ->
                  while true do
                    ignore
                      (ptm.Ptm.atomically ~thread:th (fun tx ->
                           let c = tx.Ptm.read 0 in
                           let c1 = Int64.add c 1L in
                           tx.Ptm.write (8 * (1 + (Int64.to_int c1 land 63))) c1;
                           tx.Ptm.write 0 c1))
                  done))
         done;
         Sched.advance 150_000;
         Sched.halt ()));
  let committed = ptm.Ptm.last_tid () in
  Nvm.crash ~evict_fraction:0.4 ~rng:(Rng.create 11) (B.Mnemosyne.nvm t);
  let replayed = B.Mnemosyne.recover t in
  check Alcotest.bool "some records replayed" true (replayed > 0);
  (* Every committed transaction's counter increment is reconstructed:
     the counter equals the commit count. *)
  check Alcotest.int64 "redo recovery reconstructs all committed txs"
    (Int64.of_int committed)
    (Nvm.load_u64 (B.Mnemosyne.nvm t) 0);
  (* Recovery is idempotent over the truncated logs. *)
  check Alcotest.int "second recovery finds nothing" 0 (B.Mnemosyne.recover t)

let test_nvml_recovery_rolls_back_inflight () =
  let t = B.Nvml.create { B.Nvml.default_config with B.Nvml.heap_size = heap } in
  let ptm = B.Nvml.ptm_of t in
  (* One committed transaction... *)
  ignore (ptm.Ptm.atomically ~thread:0 ~wset:[ 0 ] (fun tx -> tx.Ptm.write 0 5L));
  (* ...then a crash in the middle of a second one: its undo log is
     persisted, its in-place writes partially so. *)
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "w" (fun () ->
                ignore
                  (ptm.Ptm.atomically ~thread:0 ~wset:[ 0; 8 ] (fun tx ->
                       tx.Ptm.write 0 99L;
                       Sched.wait_until ~label:"never" (fun () -> false)))));
         Sched.advance 100_000;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:0.8 ~rng:(Rng.create 13) (B.Nvml.nvm t);
  let rolled_back = B.Nvml.recover t in
  check Alcotest.int "one in-flight transaction rolled back" 1 rolled_back;
  check Alcotest.int64 "undo restored the committed value" 5L
    (Nvm.load_u64 (B.Nvml.nvm t) 0);
  check Alcotest.int64 "partial write to 8 rolled back" 0L (Nvm.load_u64 (B.Nvml.nvm t) 8);
  check Alcotest.int "second recovery finds nothing" 0 (B.Nvml.recover t)

let test_mnemosyne_truncation_then_recovery () =
  (* Force log truncation, then crash: recovery must not resurrect stale
     pre-truncation records. *)
  let cfg =
    { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = heap; log_size = 2048 }
  in
  let t = B.Mnemosyne.create cfg in
  let ptm = B.Mnemosyne.ptm_of t in
  ignore
    (Sched.run (fun () ->
         for i = 1 to 300 do
           ignore
             (ptm.Ptm.atomically ~thread:0 (fun tx ->
                  tx.Ptm.write (8 * (i land 31)) (Int64.of_int i)))
         done));
  let committed = ptm.Ptm.last_tid () in
  Nvm.crash (B.Mnemosyne.nvm t);
  ignore (B.Mnemosyne.recover t);
  (* State must reflect all 300 transactions, not a stale lap. *)
  let ok = ref true in
  for i = 270 to 300 do
    if Nvm.load_u64 (B.Mnemosyne.nvm t) (8 * (i land 31)) = 0L then ok := false
  done;
  check Alcotest.int "all transactions committed" 300 committed;
  check Alcotest.bool "post-truncation state intact" true !ok

(* ------------------- oversized transactions (both) ------------------- *)

(* A transaction whose log record cannot fit the per-thread log region is
   rejected with [Invalid_argument] before it takes any lock or draws a
   commit version: a later transaction on the same stripes must still
   commit promptly, and the durable ID must keep up with the last commit. *)
let oversized_leaves_no_locks (ptm : Ptm.t) =
  let big = List.init 200 (fun i -> 8 * i) in
  let wset addrs = if ptm.Ptm.requires_static then Some addrs else None in
  let follow_up = ref false in
  let rejected = ref false in
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         ignore (ptm.Ptm.atomically ~thread:0 ?wset:(wset [ 0 ]) (fun tx -> tx.Ptm.write 0 1L));
         (match
            ptm.Ptm.atomically ~thread:0 ?wset:(wset big) (fun tx ->
                List.iter (fun a -> tx.Ptm.write a 7L) big)
          with
         | _ -> ()
         | exception Invalid_argument _ -> rejected := true);
         (* A stripe the rejected transaction wrote: a daemon, so a lock
            left behind shows up as an unfinished follow-up, not a hang. *)
         ignore
           (Sched.spawn ~daemon:true "follow-up" (fun () ->
                ignore
                  (ptm.Ptm.atomically ~thread:1 ?wset:(wset [ 8 ]) (fun tx ->
                       tx.Ptm.write 8 2L));
                follow_up := true));
         Sched.advance 5_000_000));
  let name = ptm.Ptm.name in
  check Alcotest.bool (name ^ ": oversized transaction rejected") true !rejected;
  check Alcotest.bool (name ^ ": follow-up on its stripe committed") true !follow_up;
  check Alcotest.int (name ^ ": two commits, contiguous IDs") 2 (ptm.Ptm.last_tid ());
  check Alcotest.int (name ^ ": durable ID reaches the last commit") 2 (ptm.Ptm.durable_id ());
  check Alcotest.int64 (name ^ ": rejected writes never applied") 0L (ptm.Ptm.peek 16)

let test_oversized_tx_rejected_before_locking () =
  oversized_leaves_no_locks
    (B.Mnemosyne.ptm
       { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = heap; log_size = 2048 });
  oversized_leaves_no_locks
    (B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = heap; log_size = 2048 })

(* ---------------------------- log records ---------------------------- *)

(* Both baselines write one [header | n | (addr, value) × n] record per
   transaction into a per-thread log region.  Pin the bytes a fixed
   two-transaction run leaves there, both the cached and the persisted
   image, plus the persist count, so a change to the record codec that
   moves a byte or a persist shows up. *)
let log_region_digest ptm ~heap_size ~log_size =
  let nvm = Option.get ptm.Ptm.nvm in
  ignore
    (Sched.run (fun () ->
         List.iter
           (fun writes ->
             let wset = if ptm.Ptm.requires_static then Some (List.map fst writes) else None in
             match
               ptm.Ptm.atomically ~thread:1 ?wset (fun tx ->
                   List.iter (fun (a, v) -> tx.Ptm.write a v) writes)
             with
             | Some _ -> ()
             | None -> Alcotest.fail "aborted")
           [ [ (4096, 11L); (4160, 22L); (8192, 33L) ]; [ (4160, 44L); (12288, 55L) ] ]));
  let len = 2 * log_size in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%s|%d"
          (Bytes.to_string (Nvm.load_bytes nvm heap_size len))
          (Bytes.to_string (Nvm.persisted_bytes nvm heap_size len))
          (Nvm.persist_ops nvm)))

let test_log_record_bytes () =
  let heap_size = 1 lsl 16 and log_size = 1024 in
  check Alcotest.string "mnemosyne: log region"
    "2440ff24b84920009efd8e564a809cc6"
    (log_region_digest ~heap_size ~log_size
       (B.Mnemosyne.ptm
          { B.Mnemosyne.default_config with B.Mnemosyne.heap_size; nthreads = 2; log_size }));
  check Alcotest.string "nvml: log region"
    "200fe1aaaf159bfbd6543bcfdc9f386d"
    (log_region_digest ~heap_size ~log_size
       (B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size; nthreads = 2; log_size }))

let suite =
  [
    Alcotest.test_case "all systems agree on the counter" `Quick test_all_systems_agree;
    Alcotest.test_case "durability semantics" `Quick test_durability_semantics;
    Alcotest.test_case "abort rolls back everywhere" `Quick test_abort_rolls_back_everywhere;
    Alcotest.test_case "mnemosyne: data reaches NVM" `Quick test_mnemosyne_data_reaches_nvm;
    Alcotest.test_case "mnemosyne: read own writes" `Quick test_mnemosyne_read_own_writes;
    Alcotest.test_case "mnemosyne: log truncation" `Quick test_mnemosyne_log_truncates;
    Alcotest.test_case "nvml: undeclared write rejected" `Quick test_nvml_rejects_undeclared_write;
    Alcotest.test_case "nvml: undo restores on abort" `Quick test_nvml_undo_restores_on_abort;
    Alcotest.test_case "nvml: locks serialize" `Quick test_nvml_locks_serialize;
    Alcotest.test_case "nvml: commit is durable" `Quick test_nvml_commit_is_durable;
    Alcotest.test_case "mnemosyne: crash recovery" `Quick test_mnemosyne_recovery;
    Alcotest.test_case "nvml: recovery rolls back in-flight" `Quick
      test_nvml_recovery_rolls_back_inflight;
    Alcotest.test_case "mnemosyne: truncation then recovery" `Quick
      test_mnemosyne_truncation_then_recovery;
    Alcotest.test_case "oversized transaction rejected before locking" `Quick
      test_oversized_tx_rejected_before_locking;
    Alcotest.test_case "log records: bytes pinned" `Quick test_log_record_bytes;
  ]
