(* Live-migration coordinator tests: clean end-to-end bucket handoff
   (ownership flip, epoch bump, value preservation, source zeroing), a
   Copy-phase crash rolling back, roll-forward idempotence (re-attaching
   the same sealed handoff record twice ≡ once), and attach-time
   descriptor validation (corrupt CRC, shard-count mismatch) raising the
   typed [Invalid_partition] error. *)

module Sched = Dudetm_sim.Sched
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Partition = Dudetm_workloads.Partition
module Handoff = Dudetm_shard.Handoff
module Mig = Dudetm_shard.Migrate.Make (Dudetm_tm.Tinystm)
module Sh = Mig.Sh

let check = Alcotest.check

let nshards = 4

(* 8 dense keys over 4 equal-width buckets: bucket b owns keys 2b, 2b+1. *)
let nkeys = 8

let slot_of k = 8 * k

let initial_owners () = [| 0; 1; 2; 3 |]

let part0 () =
  Partition.buckets ~nshards ~lo:0L ~hi:(Int64.of_int nkeys) ~owners:(initial_owners ())

let cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = 2;
    vlog_capacity = 256;
    plog_size = 1 lsl 14;
    meta_size = 8192;
    checkpoint_records = 2;
    seed = 11;
  }

let fresh () =
  let sh = Sh.create ~nshards cfg in
  (sh, Mig.create sh ~part:(part0 ()) ~nkeys ~slot_of)

(* Seed key k to the value k+1 by k+1 routed increments. *)
let seed mig =
  for k = 0 to nkeys - 1 do
    for _ = 1 to k + 1 do
      match Mig.apply mig ~thread:0 ~key:k (fun v -> Int64.add v 1L) with
      | Some _ -> ()
      | None -> Alcotest.failf "seeding key %d aborted" k
    done
  done

let devices sh = Array.init nshards (Sh.nvm sh)

let heap_word sh shard k = Sh.Engine.heap_read_u64 (Sh.engine sh shard) (slot_of k)

(* Key [k] as its descriptor-routed owner's heap holds it. *)
let read_key sh mig k = heap_word sh (Mig.owner mig k) k

(* --------------------------- clean migration ----------------------------- *)

let test_clean_migration () =
  let sh, mig = fresh () in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed mig;
         Mig.migrate mig ~thread:0 ~src:1 ~dst:3 ~blo:1 ~bhi:2;
         check Alcotest.int "bucket 1 now owned by shard 3" 3
           (Partition.owners (Mig.partition mig)).(1);
         check Alcotest.int "descriptor epoch bumped" 2 (Mig.epoch mig);
         check Alcotest.bool "no migration in flight" true (Mig.migrating mig = None);
         for k = 0 to nkeys - 1 do
           check Alcotest.int
             (Printf.sprintf "key %d readable after the handoff" k)
             (k + 1)
             (Int64.to_int (read_key sh mig k))
         done;
         Sh.drain sh;
         Sh.stop sh));
  (* Moved values live on the destination heap; the source slots are
     zeroed — no unreachable extents. *)
  check Alcotest.int "key 2 on destination heap" 3 (Int64.to_int (heap_word sh 3 2));
  check Alcotest.int "key 3 on destination heap" 4 (Int64.to_int (heap_word sh 3 3));
  check Alcotest.int "key 2 zeroed on source" 0 (Int64.to_int (heap_word sh 1 2));
  check Alcotest.int "key 3 zeroed on source" 0 (Int64.to_int (heap_word sh 1 3))

(* ----------------------- Copy-phase crash: rollback ----------------------- *)

let test_copy_crash_rolls_back () =
  let sh, mig = fresh () in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed mig;
         Mig.begin_migration mig ~src:1 ~dst:3 ~blo:1 ~bhi:2;
         (* Ship part of the range, then die before the flip. *)
         ignore (Mig.copy_step ~chunk:1 mig ~thread:0);
         Sh.drain sh));
  Array.iter Nvm.crash (devices sh);
  let sh2, _ = Sh.attach ~nshards cfg (devices sh) in
  let mig2, resume = Mig.attach sh2 ~nkeys ~slot_of in
  (match resume with
  | Mig.Rolled_back pl ->
    check Alcotest.int "rolled-back plan src" 1 pl.Handoff.src;
    check Alcotest.int "rolled-back plan dst" 3 pl.Handoff.dst
  | Mig.Clean -> Alcotest.fail "Copy record lost: attach reported Clean"
  | Mig.Resumed _ -> Alcotest.fail "Copy record must roll back, not forward");
  check Alcotest.bool "ownership unchanged after rollback" true
    (Partition.owners (Mig.partition mig2) = initial_owners ());
  check Alcotest.int "epoch unchanged after rollback" 1 (Mig.epoch mig2);
  (* The rollback sealed Idle, so a second attach finds nothing to do. *)
  Array.iter Nvm.crash (devices sh);
  let sh3, _ = Sh.attach ~nshards cfg (devices sh) in
  let mig3, resume2 = Mig.attach sh3 ~nkeys ~slot_of in
  check Alcotest.bool "second attach is clean" true (resume2 = Mig.Clean);
  ignore
    (Sched.run (fun () ->
         Sh.start sh3;
         for k = 0 to nkeys - 1 do
           check Alcotest.int
             (Printf.sprintf "key %d survived the rollback" k)
             (k + 1)
             (Int64.to_int (read_key sh3 mig3 k))
         done;
         Sh.drain sh3;
         Sh.stop sh3))

(* ------------- roll-forward idempotence: same record twice --------------- *)

let test_sealed_record_applied_twice () =
  let sh, mig = fresh () in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed mig;
         Mig.begin_migration mig ~src:1 ~dst:3 ~blo:1 ~bhi:2;
         while not (Mig.copy_step mig ~thread:0) do
           ()
         done;
         (* Flip seals Flip + descriptor + Cleanup, then we die with the
            cleanup still pending. *)
         Mig.flip mig;
         Sh.drain sh));
  Array.iter Nvm.crash (devices sh);
  (* First replay of the sealed record. *)
  let sh2, _ = Sh.attach ~nshards cfg (devices sh) in
  let _mig2, resume1 = Mig.attach sh2 ~nkeys ~slot_of in
  let plan1 =
    match resume1 with
    | Mig.Resumed pl -> pl
    | Mig.Clean -> Alcotest.fail "sealed handoff lost: attach reported Clean"
    | Mig.Rolled_back _ -> Alcotest.fail "post-flip record must roll forward"
  in
  (* Crash again with zero progress: the identical record replays again
     and must land in the identical state. *)
  Array.iter Nvm.crash (devices sh);
  let sh3, _ = Sh.attach ~nshards cfg (devices sh) in
  let mig3, resume2 = Mig.attach sh3 ~nkeys ~slot_of in
  (match resume2 with
  | Mig.Resumed pl ->
    check Alcotest.bool "identical plan on the second replay" true (pl = plan1)
  | _ -> Alcotest.fail "second replay of the sealed record diverged");
  check Alcotest.int "epoch identical across replays" 2 (Mig.epoch mig3);
  check Alcotest.int "ownership identical across replays" 3
    (Partition.owners (Mig.partition mig3)).(1);
  (* Finishing from the second replay gives exactly the single-application
     end state. *)
  ignore
    (Sched.run (fun () ->
         Sh.start sh3;
         while not (Mig.cleanup_step mig3 ~thread:0) do
           ()
         done;
         check Alcotest.bool "idle after resumed cleanup" true (Mig.migrating mig3 = None);
         for k = 0 to nkeys - 1 do
           check Alcotest.int
             (Printf.sprintf "key %d correct after twice-applied handoff" k)
             (k + 1)
             (Int64.to_int (read_key sh3 mig3 k))
         done;
         Sh.drain sh3;
         Sh.stop sh3));
  check Alcotest.int "source zeroed exactly once" 0 (Int64.to_int (heap_word sh3 1 2));
  check Alcotest.int "destination holds the moved value" 3
    (Int64.to_int (heap_word sh3 3 2))

(* ------------------- attach-time descriptor validation ------------------- *)

let test_attach_validates_descriptor () =
  let sh, _mig = fresh () in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         Sh.drain sh;
         Sh.stop sh));
  let dev0 = Sh.nvm sh 0 in
  let base = Config.hjournal_base cfg in
  (* Shard-count mismatch: the sealed descriptor names 4 shards. *)
  (match Handoff.attach dev0 ~base ~nshards:(nshards + 1) with
  | _ -> Alcotest.fail "shard-count mismatch accepted"
  | exception Partition.Invalid_partition msg ->
    check Alcotest.bool "mismatch error names the counts" true
      (String.length msg > 0));
  (* Corrupt every slot of both records: no valid CRC survives, so attach
     must refuse with the typed error rather than invent a mapping. *)
  for w = 0 to (Config.hjournal_size cfg / 8) - 1 do
    Nvm.store_u64 dev0 (base + (8 * w)) 0x6b6f6b6f6b6f6b6fL
  done;
  Nvm.persist dev0 ~off:base ~len:(Config.hjournal_size cfg);
  (match Handoff.attach dev0 ~base ~nshards with
  | _ -> Alcotest.fail "corrupt descriptor accepted"
  | exception Partition.Invalid_partition _ -> ());
  let sh2, _ = Sh.attach ~nshards cfg (devices sh) in
  match Mig.attach sh2 ~nkeys ~slot_of with
  | _ -> Alcotest.fail "Migrate.attach accepted a corrupt descriptor"
  | exception Partition.Invalid_partition _ -> ()

let suite =
  [
    Alcotest.test_case "migrate: clean bucket handoff end to end" `Quick
      test_clean_migration;
    Alcotest.test_case "migrate: Copy-phase crash rolls back" `Quick
      test_copy_crash_rolls_back;
    Alcotest.test_case "migrate: sealed record applied twice = once" `Quick
      test_sealed_record_applied_twice;
    Alcotest.test_case "migrate: attach validates the descriptor" `Quick
      test_attach_validates_descriptor;
  ]
