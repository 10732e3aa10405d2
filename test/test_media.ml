(* Cache-eviction adversary sweep (replayable [Nvm.crash ~evict_fraction])
   and the drain watchdog. *)

module Sched = Dudetm_sim.Sched
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Check = Dudetm_check.Check
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* S4: recovery must hold for every cache-eviction fraction — the crash
   model's choice of which dirty lines survive the cut is adversarial
   noise, not something correctness may depend on. *)
let evict_fractions = [ 0.0; 0.25; 0.5; 1.0 ]

let test_evict_sweep_replay () =
  List.iter
    (fun fraction ->
      List.iter
        (fun crash ->
          match
            Check.run "explore"
              [
                ("system", "dude");
                ("workload", "counter");
                ("sched", "default");
                ("evict", string_of_float fraction);
                ("evict-seed", "11");
                ("crash-at", string_of_int crash);
              ]
          with
          | Check.Pass _ -> ()
          | Check.Fail f -> Alcotest.failf "evict %.2f crash %d: %s" fraction crash f.Check.reason)
        [ 0; 1; 5; 9 ])
    evict_fractions

let test_evict_full_campaign () =
  (* One full smoke campaign at a non-trivial fraction: every crash site,
     scheduled and randomized orders, survivors recorded. *)
  match
    Check.run ~budget:Check.Smoke "explore"
      [ ("system", "dude"); ("evict", "0.5"); ("evict-seed", "7") ]
  with
  | Check.Pass r -> Alcotest.(check bool) "ran" true (r.Check.runs > 0)
  | Check.Fail f ->
    Alcotest.failf "evict campaign failed: %s\n  %s" f.Check.reason (Check.replay_line f)

let test_evict_failure_carries_survivors () =
  (* A mutant that the eviction adversary catches must report the evict
     knob and the surviving lines in its replay record.  Note the
     fraction: at 1.0 every dirty line is written back at the cut, which
     masks a missing persist fence; 0.5 loses some lines. *)
  match
    Check.run ~budget:Check.Smoke ~mutant:Config.Early_durable_publish "explore"
      [ ("system", "dude"); ("evict", "0.5"); ("evict-seed", "3") ]
  with
  | Check.Pass _ -> Alcotest.fail "early-durable mutant escaped the eviction sweep"
  | Check.Fail f ->
    let got k = List.assoc_opt k f.Check.params in
    Alcotest.(check (option string)) "fraction recorded" (Some "0.5") (got "evict");
    Alcotest.(check (option string)) "seed recorded" (Some "3") (got "evict-seed");
    Alcotest.(check bool) "reason names the surviving lines" true
      (contains f.Check.reason "surviving lines" || contains f.Check.reason "no dirty lines");
    Alcotest.(check bool) "replay line names the adversary" true
      (contains (Check.replay_line f) "--evict 0.5")

(* S1: the drain watchdog.  With a cycle budget far below the pipeline's
   persist latency, committed-but-unretired work must surface as a
   [Drain_stalled] diagnostic instead of an unbounded wait. *)
let test_drain_watchdog_raises () =
  let cfg =
    {
      Config.default with
      Config.heap_size = 1 lsl 16;
      root_size = 4096;
      nthreads = 1;
      vlog_capacity = 256;
      plog_size = 1 lsl 13;
      meta_size = 8192;
      seed = 7;
      drain_budget = 1;
    }
  in
  let t = D.create cfg in
  let stalled = ref None in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for _ = 1 to 8 do
           ignore
             (D.atomically t ~thread:0 (fun tx ->
                  D.write tx (D.root_base t) (Int64.add (D.read tx (D.root_base t)) 1L)))
         done;
         match D.drain t with
         | () -> ()
         | exception Dudetm_core.Dudetm.Drain_stalled msg -> stalled := Some msg));
  match !stalled with
  | None -> Alcotest.fail "drain returned despite a 1-cycle budget"
  | Some msg ->
    let has needle = contains msg needle in
    Alcotest.(check bool) "diagnostic names the budget" true (has "after 1 cycles");
    Alcotest.(check bool) "diagnostic reports pipeline stages" true
      (has "durable=" && has "applied=" && has "vlog_backlog=")

let test_drain_watchdog_quiet_on_healthy_engine () =
  (* The default budget never fires on a healthy pipeline. *)
  let cfg =
    {
      Config.default with
      Config.heap_size = 1 lsl 16;
      root_size = 4096;
      nthreads = 1;
      vlog_capacity = 256;
      plog_size = 1 lsl 13;
      meta_size = 8192;
      seed = 7;
    }
  in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for _ = 1 to 8 do
           ignore
             (D.atomically t ~thread:0 (fun tx ->
                  D.write tx (D.root_base t) (Int64.add (D.read tx (D.root_base t)) 1L)))
         done;
         D.drain t;
         D.stop t));
  Alcotest.(check int64) "all transactions retired" 8L
    (Nvm.persisted_u64 (D.nvm t) 0)

let suite =
  [
    Alcotest.test_case "evict sweep 0/25/50/100% replays clean" `Quick
      test_evict_sweep_replay;
    Alcotest.test_case "evict full campaign at 50%" `Quick test_evict_full_campaign;
    Alcotest.test_case "evict failure records knob and survivors" `Quick
      test_evict_failure_carries_survivors;
    Alcotest.test_case "drain watchdog raises on stalled pipeline" `Quick
      test_drain_watchdog_raises;
    Alcotest.test_case "drain watchdog quiet on healthy engine" `Quick
      test_drain_watchdog_quiet_on_healthy_engine;
  ]
