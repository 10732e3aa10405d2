(* Read-only snapshot fast-path tests.

   The pinning property suite for [atomically_ro]:

   - a differential oracle: seeded random schedules of writers and snapshot
     readers on the DudeTM engine; every snapshot's read-set must equal the
     same-seed serial replay of the committed history at the snapshot's
     epoch, in both fresh-epoch and durable-only modes — and a pure-RO
     phase must move neither the engine's transaction counter nor its
     redo-log entry counter (log-free, persist-free);
   - quorum-pinned durable reads on a replicated cluster: the epoch never
     exceeds the acked watermark, even under a full partition;
   - quickcheck-style properties over scheduler seeds: epoch monotonicity
     (within and across snapshots), extension never moves the epoch
     backwards, no torn read-set, durable epochs bounded by the watermark;
   - a hand-driven tear: the seeded [Skip_snapshot_validate] mutant
     (extension without read-set revalidation) provably returns values
     from two different epochs, and validation provably prevents it;
   - typed [Read_only_violation] on any write/pmalloc/pfree inside an RO
     body, on the engine and on the volatile baseline. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Config = Dudetm_core.Config
module Tm_intf = Dudetm_tm.Tm_intf
module Tinystm = Dudetm_tm.Tinystm
module Snapshot = Dudetm_tm.Snapshot
module Link = Dudetm_replica.Link
module B = Dudetm_baselines
module Ptm = B.Ptm_intf
module Rep = Dudetm_replica.Replica.Make (Dudetm_tm.Tinystm)
module E = Rep.Engine

let check = Alcotest.check

(* ------------------- differential oracle, both modes -------------------- *)

let nslots = 8

let slot i = 64 + (8 * i)

let dude_cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 18;
    nthreads = 4;
    vlog_capacity = 2048;
    plog_size = 1 lsl 16;
    seed = 5;
  }

(* Writers journal every committed write as [(tid, writes)]; snapshot
   readers journal [(epoch, read-set)].  The oracle replays the committed
   history up to each snapshot's epoch in transaction-ID order — commit
   timestamps and snapshot epochs live on the same clock — and every read
   value must match the serial model exactly. *)
let test_differential_oracle () =
  List.iter
    (fun (op_seed, sched_seed) ->
      let ptm, _d = B.Dude_ptm.Stm.ptm dude_cfg in
      let commits = ref [] in
      let snaps = ref [] in
      let nwriters = 2 and nreaders = 2 in
      ignore
        (Sched.run ~strategy:(Sched.random_priority ~seed:sched_seed) (fun () ->
             ptm.Ptm.start ();
             let writers =
               List.init nwriters (fun th ->
                   Sched.spawn
                     (Printf.sprintf "w%d" th)
                     (fun () ->
                       let rng = Rng.create (op_seed + th) in
                       for _ = 1 to 40 do
                         let a1 = slot (Rng.int rng nslots)
                         and a2 = slot (Rng.int rng nslots) in
                         let v1 = Rng.next_int64 rng and v2 = Rng.next_int64 rng in
                         (match
                            ptm.Ptm.atomically ~thread:th (fun tx ->
                                tx.Ptm.write a1 v1;
                                tx.Ptm.write a2 v2)
                          with
                         | Some ((), tid) -> commits := (tid, [ (a1, v1); (a2, v2) ]) :: !commits
                         | None -> ());
                         Sched.advance (50 + Rng.int rng 200)
                       done))
             in
             let readers =
               List.init nreaders (fun r ->
                   let durable = r = 1 in
                   let th = nwriters + r in
                   Sched.spawn
                     (Printf.sprintf "ro%d" r)
                     (fun () ->
                       let rng = Rng.create (op_seed + 100 + r) in
                       let last_epoch = ref 0 in
                       for _ = 1 to 25 do
                         (match
                            ptm.Ptm.atomically_ro ~durable ~thread:th (fun tx ->
                                List.init nslots (fun i -> (slot i, tx.Ptm.read (slot i))))
                          with
                         | Some (vals, epoch) ->
                           if epoch < !last_epoch then
                             Alcotest.failf "reader %d: epoch %d after epoch %d" r epoch
                               !last_epoch;
                           last_epoch := epoch;
                           snaps := (r, durable, epoch, ptm.Ptm.durable_id (), vals) :: !snaps
                         | None -> Alcotest.fail "snapshot aborted unexpectedly");
                         Sched.advance (100 + Rng.int rng 300)
                       done))
             in
             Sched.join ~label:"snapshot differential workers" (writers @ readers);
             ptm.Ptm.drain ();
             (* A pure-RO phase is log-free and ID-free: no engine
                transaction, no redo entry. *)
             let stat key =
               match List.assoc_opt key (ptm.Ptm.counters ()) with Some v -> v | None -> 0
             in
             let txs0 = stat "txs" and log0 = stat "log_entries" in
             for _ = 1 to 5 do
               ignore
                 (ptm.Ptm.atomically_ro ~durable:false ~thread:0 (fun tx ->
                      tx.Ptm.read (slot 0)))
             done;
             check Alcotest.int "RO transactions draw no engine transaction" txs0 (stat "txs");
             check Alcotest.int "RO transactions append no redo entries" log0
               (stat "log_entries");
             ptm.Ptm.drain ();
             ptm.Ptm.stop ()));
      check Alcotest.bool "writers committed" true (!commits <> []);
      check Alcotest.bool "snapshots observed" true (!snaps <> []);
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !commits in
      List.iter
        (fun (r, durable, epoch, wm_after, vals) ->
          (* The watermark is monotone, so sampling it after the snapshot
             returned still bounds the pinned epoch from above. *)
          if durable && epoch > wm_after then
            Alcotest.failf "reader %d: durable epoch %d above watermark %d" r epoch wm_after;
          let model = Hashtbl.create 16 in
          List.iter
            (fun (tid, ws) ->
              if tid <= epoch then List.iter (fun (a, v) -> Hashtbl.replace model a v) ws)
            sorted;
          List.iter
            (fun (a, v) ->
              let want = Option.value ~default:0L (Hashtbl.find_opt model a) in
              if v <> want then
                Alcotest.failf
                  "seed (%d,%d) reader %d (%s): slot %d read %Ld, serial model at epoch %d \
                   says %Ld"
                  op_seed sched_seed r
                  (if durable then "durable" else "volatile")
                  a v epoch want)
            vals)
        !snaps)
    [ (42, 1); (43, 2); (44, 3) ]

(* -------------- quorum-pinned reads on a replicated cluster -------------- *)

let rep_cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = 2;
    vlog_capacity = 256;
    plog_size = 1 lsl 14;
    meta_size = 8192;
    persist = Config.Combined { group = 4; compress = true };
    reproduce_batch = 4;
    checkpoint_records = 2;
    seed = 7;
    ack_timeout = 2_000_000;
  }

let fast_link = { Link.default_config with Link.latency = 2_000 }

let hot = 8

let cold = 16

(* Durable snapshots on a replicated cluster pin at the quorum watermark:
   under a full partition the epoch stays at the pre-partition watermark
   (cold data still readable, stale), while fresh-epoch snapshots see the
   primary's newest commits; after the links heal the pinned reader
   catches up. *)
let test_replica_quorum_reads () =
  let rcfg = { (Rep.default_config ~nreplicas:2 ()) with Rep.link = fast_link } in
  let cluster = Rep.create ~rcfg rep_cfg in
  let prim = Rep.primary cluster in
  ignore
    (Sched.run (fun () ->
         Rep.start cluster;
         for i = 1 to 5 do
           ignore
             (E.atomically prim ~thread:0 (fun tx ->
                  E.write tx hot (Int64.of_int i);
                  E.write tx cold (Int64.of_int (100 + i))))
         done;
         (match Rep.drain cluster with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "healthy cluster degraded: %s" d);
         let acked0 = Rep.acked cluster in
         (match Rep.atomically_ro ~durable:true cluster ~thread:1 (fun tx -> E.read tx hot) with
         | Some (v, epoch) ->
           check Alcotest.int64 "quorum-pinned read sees the drained value" 5L v;
           if epoch > Rep.acked cluster then
             Alcotest.failf "pinned epoch %d above the acked watermark %d" epoch
               (Rep.acked cluster)
         | None -> Alcotest.fail "pinned snapshot aborted");
         (* Partition every replica; commit past the stalled watermark. *)
         for r = 0 to Rep.nreplicas cluster - 1 do
           Rep.set_partitioned cluster r true
         done;
         for i = 6 to 8 do
           ignore (E.atomically prim ~thread:0 (fun tx -> E.write tx hot (Int64.of_int i)))
         done;
         Sched.wait_until ~label:"primary-local durability" (fun () ->
             E.durable_id prim >= E.last_tid prim);
         check Alcotest.int "acked watermark stalled at the partition" acked0
           (Rep.acked cluster);
         (match
            Rep.atomically_ro ~durable:false cluster ~thread:1 (fun tx -> E.read tx hot)
          with
         | Some (v, _) ->
           check Alcotest.int64 "fresh-epoch snapshot sees past the quorum" 8L v
         | None -> Alcotest.fail "fresh snapshot aborted");
         (match
            Rep.atomically_ro ~durable:true cluster ~thread:1 (fun tx -> E.read tx cold)
          with
         | Some (v, epoch) ->
           check Alcotest.int64 "pinned snapshot still serves quorum-safe data" 105L v;
           if epoch > acked0 then
             Alcotest.failf "pinned epoch %d escaped the stalled watermark %d" epoch acked0
         | None -> Alcotest.fail "pinned snapshot aborted");
         (* Heal; the pinned reader catches up to the new commits. *)
         for r = 0 to Rep.nreplicas cluster - 1 do
           Rep.set_partitioned cluster r false
         done;
         Sched.wait_until ~label:"quorum heals" (fun () ->
             Rep.acked cluster >= E.last_tid prim);
         (match Rep.atomically_ro ~durable:true cluster ~thread:1 (fun tx -> E.read tx hot) with
         | Some (v, _) -> check Alcotest.int64 "healed pinned read sees the tail" 8L v
         | None -> Alcotest.fail "pinned snapshot aborted");
         Rep.stop cluster))

(* ------------------ properties over scheduler seeds ---------------------- *)

let npairs = 2

let pair_a p = 64 + (256 * p)

let pair_b p = pair_a p + 128

let rec nondecreasing = function
  | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
  | _ -> true

(* Pair-writers commit the same value to both slots of a pair; a snapshot
   that reads all the a-slots and then all the b-slots (the widest tear
   window) must still return equal pairs, with monotone epochs inside and
   across snapshots. *)
let prop_snapshot_consistency =
  QCheck2.Test.make ~name:"snapshot: monotone epochs, no torn read-set (seeded schedules)"
    ~count:25
    QCheck2.Gen.(int_range 0 9_999)
    (fun seed ->
      let store = Tm_intf.mem_store (Bytes.make 4096 '\000') in
      let ok = ref true in
      ignore
        (Sched.run ~strategy:(Sched.random_priority ~seed) (fun () ->
             let tm = Tinystm.create ~seed store in
             let writer =
               Sched.spawn "writer" (fun () ->
                   let rng = Rng.create (seed + 1) in
                   for i = 1 to 20 do
                     let p = Rng.int rng npairs in
                     let v = Int64.of_int i in
                     ignore
                       (Tinystm.run tm (fun tx ->
                            Tinystm.write tx (pair_a p) v;
                            Tinystm.write tx (pair_b p) v));
                     Sched.advance (20 + Rng.int rng 100)
                   done)
             in
             let last_epoch = ref 0 in
             for _ = 1 to 15 do
               (match
                  Tinystm.run_ro tm (fun ro ->
                      let epochs = ref [ Tinystm.ro_epoch ro ] in
                      let note v =
                        epochs := Tinystm.ro_epoch ro :: !epochs;
                        v
                      in
                      let va = Array.init npairs (fun p -> note (Tinystm.ro_read ro (pair_a p))) in
                      let vb = Array.init npairs (fun p -> note (Tinystm.ro_read ro (pair_b p))) in
                      (va, vb, List.rev !epochs))
                with
               | Some ((va, vb, epochs), final) ->
                 if not (nondecreasing epochs) then ok := false;
                 if List.exists (fun e -> e > final) epochs then ok := false;
                 if final < !last_epoch then ok := false;
                 last_epoch := final;
                 for p = 0 to npairs - 1 do
                   if va.(p) <> vb.(p) then ok := false
                 done
               | None -> ok := false);
               Sched.advance 50
             done;
             Sched.join ~label:"snapshot prop writer" [ writer ]));
      !ok)

let prop_durable_epoch_bounded =
  QCheck2.Test.make ~name:"snapshot: durable epoch never exceeds the watermark" ~count:8
    QCheck2.Gen.(int_range 0 999)
    (fun seed ->
      let cfg = { dude_cfg with Config.nthreads = 2; seed = 1 + seed } in
      let ptm, _ = B.Dude_ptm.Stm.ptm cfg in
      let ok = ref true in
      ignore
        (Sched.run ~strategy:(Sched.random_priority ~seed) (fun () ->
             ptm.Ptm.start ();
             let writer =
               Sched.spawn "writer" (fun () ->
                   let rng = Rng.create seed in
                   for i = 1 to 15 do
                     ignore
                       (ptm.Ptm.atomically ~thread:0 (fun tx ->
                            tx.Ptm.write (slot (i mod nslots)) (Int64.of_int i)));
                     Sched.advance (50 + Rng.int rng 200)
                   done)
             in
             for _ = 1 to 10 do
               (match
                  ptm.Ptm.atomically_ro ~durable:true ~thread:1 (fun tx ->
                      tx.Ptm.read (slot 0))
                with
               | Some (_, epoch) -> if epoch > ptm.Ptm.durable_id () then ok := false
               | None -> ok := false);
               Sched.advance 100
             done;
             Sched.join ~label:"durable prop writer" [ writer ];
             ptm.Ptm.drain ();
             ptm.Ptm.stop ()));
      !ok)

(* ---------------- the tear the mutant makes, hand-driven ----------------- *)

let tear_a = 64

let tear_b = 320

(* The reader reads slot a, then hands the writer exactly one commit to
   both slots, then reads slot b — forcing an extension.  Without read-set
   revalidation the epoch slides and the snapshot returns one value from
   each epoch; with it, the extension restarts the snapshot and the second
   attempt is consistent. *)
let run_tear ~validate =
  Dudetm_sim.Inject.with_ ~mutant:(if validate then No_fault else Skip_snapshot_validate)
  @@ fun () ->
  let store = Tm_intf.mem_store (Bytes.make 1024 '\000') in
  let result = ref None in
  ignore
    (Sched.run (fun () ->
         let tm = Tinystm.create ~seed:3 store in
         let want_commit = ref false and committed = ref false in
         ignore
           (Sched.spawn "writer" (fun () ->
                Sched.wait_until ~label:"tear writer trigger" (fun () -> !want_commit);
                match
                  Tinystm.run tm (fun tx ->
                      Tinystm.write tx tear_a 7L;
                      Tinystm.write tx tear_b 7L)
                with
                | Some _ -> committed := true
                | None -> Alcotest.fail "tear writer aborted"));
         let first = ref true in
         result :=
           Tinystm.run_ro tm (fun ro ->
               let va = Tinystm.ro_read ro tear_a in
               if !first then begin
                 first := false;
                 want_commit := true;
                 Sched.wait_until ~label:"tear reader waits commit" (fun () -> !committed)
               end;
               let vb = Tinystm.ro_read ro tear_b in
               (va, vb))));
  match !result with
  | Some (pair, _) -> pair
  | None -> Alcotest.fail "tear snapshot aborted"

let test_mutant_tears () =
  let va, vb = run_tear ~validate:false in
  check Alcotest.bool "Skip_snapshot_validate tears the read-set" true (va <> vb);
  check Alcotest.int64 "mutant kept the stale first read" 0L va;
  check Alcotest.int64 "mutant slid to the new epoch for the second read" 7L vb

let test_validation_prevents_tear () =
  let va, vb = run_tear ~validate:true in
  check Alcotest.int64 "validated snapshot is consistent (a)" 7L va;
  check Alcotest.int64 "validated snapshot is consistent (b)" 7L vb

(* ------------- extension semantics on the bare snapshot API -------------- *)

let test_extension_never_backwards () =
  let store = Tm_intf.mem_store (Bytes.make 1024 '\000') in
  ignore
    (Sched.run (fun () ->
         let tm = Tinystm.create ~seed:4 store in
         for i = 1 to 3 do
           ignore (Tinystm.run tm (fun tx -> Tinystm.write tx 64 (Int64.of_int i)))
         done;
         let ro = Snapshot.begin_ro tm in
         check Alcotest.int "epoch starts at the clock" 3 (Snapshot.epoch ro);
         check Alcotest.int64 "snapshot reads the committed value" 3L (Snapshot.read ro 64);
         check Alcotest.int "read-set recorded" 1 (Snapshot.read_set_size ro);
         (* Extending to an already-admitted version never moves backwards. *)
         (match Snapshot.read ro 64 with _ -> ());
         check Alcotest.int "re-read leaves the epoch in place" 3 (Snapshot.epoch ro);
         (* A commit on an untouched stripe: validated extension slides
            forward, the read-set survives. *)
         ignore (Tinystm.run tm (fun tx -> Tinystm.write tx 512 9L));
         check Alcotest.int64 "extended snapshot reads the new stripe" 9L
           (Snapshot.read ro 512);
         check Alcotest.int "validated extension slid forward" 4 (Snapshot.epoch ro);
         let final = Snapshot.finish ro in
         check Alcotest.int "finish returns the final epoch" 4 final))

(* --------------------- typed read-only violations ------------------------ *)

let test_ro_violation () =
  let ptm, _ = B.Dude_ptm.Stm.ptm { dude_cfg with Config.nthreads = 1 } in
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         let expect_violation name f =
           match ptm.Ptm.atomically_ro ~durable:false ~thread:0 f with
           | _ -> Alcotest.failf "%s inside a read-only transaction must raise" name
           | exception Tm_intf.Read_only_violation -> ()
         in
         expect_violation "write" (fun tx -> tx.Ptm.write 64 1L);
         expect_violation "pmalloc" (fun tx -> ignore (tx.Ptm.pmalloc 64));
         expect_violation "pfree" (fun tx -> tx.Ptm.pfree ~off:4096 ~len:64);
         check Alcotest.bool "ro abort returns None" true
           (ptm.Ptm.atomically_ro ~durable:false ~thread:0 (fun tx -> tx.Ptm.abort ())
           = None);
         (* The engine-level exception is the TM-level one, aliased. *)
         (try raise Dudetm_core.Dudetm.Read_only_violation
          with Tm_intf.Read_only_violation -> ());
         ptm.Ptm.drain ();
         ptm.Ptm.stop ()))

let test_ro_violation_volatile () =
  let ptm = B.Volatile_stm.ptm ~heap_size:(1 lsl 16) ~nthreads:1 () in
  ignore
    (Sched.run (fun () ->
         match ptm.Ptm.atomically_ro ~durable:false ~thread:0 (fun tx -> tx.Ptm.write 64 1L) with
         | _ -> Alcotest.fail "volatile RO write must raise"
         | exception Tm_intf.Read_only_violation -> ()))

let suite =
  [
    Alcotest.test_case "snapshot: differential oracle, both modes" `Slow
      test_differential_oracle;
    Alcotest.test_case "snapshot: quorum-pinned reads on a replicated cluster" `Quick
      test_replica_quorum_reads;
    Alcotest.test_case "snapshot: Skip_snapshot_validate mutant tears" `Quick
      test_mutant_tears;
    Alcotest.test_case "snapshot: validation prevents the tear" `Quick
      test_validation_prevents_tear;
    Alcotest.test_case "snapshot: extension is validated and monotone" `Quick
      test_extension_never_backwards;
    Alcotest.test_case "snapshot: writes inside RO raise" `Quick test_ro_violation;
    Alcotest.test_case "snapshot: volatile baseline RO raises too" `Quick
      test_ro_violation_volatile;
    QCheck_alcotest.to_alcotest prop_snapshot_consistency;
    QCheck_alcotest.to_alcotest prop_durable_epoch_bounded;
  ]
