(* Every parked waiter's predicate is re-checked at every pick: a state
   change that skips its [Sched.signal] fails the test that made it. *)
let () = Dudetm_sim.Sched.audit_wakeups true

let () =
  Alcotest.run "dudetm"
    [
      ("sim", Test_sim.suite);
      ("nvm", Test_nvm.suite);
      ("log", Test_log.suite);
      ("lz", Test_lz.suite);
      ("plog", Test_plog.suite);
      ("sealed", Test_sealed.suite);
      ("tm", Test_tm.suite);
      ("shadow", Test_shadow.suite);
      ("alloc", Test_alloc.suite);
      ("dudetm", Test_dudetm.suite);
      ("engine-edge", Test_engine_edge.suite);
      ("baselines", Test_baselines.suite);
      ("workloads", Test_workloads.suite);
      ("kv", Test_kv.suite);
      ("check", Test_check.suite);
      ("history", Test_history.suite);
      ("scrub", Test_scrub.suite);
      ("media", Test_media.suite);
      ("recovery", Test_recovery.suite);
      ("trace", Test_trace.suite);
      ("batch", Test_batch.suite);
      ("shard", Test_shard.suite);
      ("partition", Test_partition.suite);
      ("migrate", Test_migrate.suite);
      ("differential", Test_differential.suite);
      ("replica", Test_replica.suite);
      ("replay", Test_replay.suite);
      ("snapshot", Test_snapshot.suite);
      ("serve", Test_serve.suite);
      ("ledger", Test_ledger.suite);
      ("txalloc", Test_txalloc.suite);
      ("recalloc", Test_recalloc.suite);
    ]
