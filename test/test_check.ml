(* Tier-1 smoke for the campaign kernel (lib/check): the explorer stays
   quiet on the real engine and both baselines; every row of the mutant
   table is caught, replays from its printed one-liner, and passes on the
   real engine; and the replay grammar rejects partial or foreign
   coordinates instead of falling back to a sweep. *)

module Check = Dudetm_check.Check
module Inject = Dudetm_sim.Inject

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run ?mutant campaign args = Check.run ~budget:Check.Smoke ?mutant campaign args

let expect_pass ?mutant campaign args =
  match run ?mutant campaign args with
  | Check.Pass r -> r
  | Check.Fail f ->
    Alcotest.failf "%s: checker found a violation: %s\n  replay: %s" campaign f.Check.reason
      (Check.replay_line f)

let test_clean system () =
  let r = expect_pass "explore" [ ("system", system) ] in
  Alcotest.(check bool) (system ^ ": explored some runs") true
    (r.Check.runs > 0 && r.Check.boundaries > 0)

(* One row of the mutant table: the campaign catches the mutant at smoke
   budget; the printed one-liner names the mutant and parses back into a
   replay of exactly that coordinate, which reproduces the same reason
   twice (determinism); and the real engine passes that coordinate —
   guarding against oracle false positives.  A row that passed all of
   this is remembered, so tests sharing a row run it once. *)
let verified_rows = Hashtbl.create 10

let check_row fault =
  let _, name, campaign = List.find (fun (f, _, _) -> f = fault) Inject.catalogue in
  let args = if campaign = "explore" then [ ("system", "dude") ] else [] in
  match run ~mutant:fault campaign args with
  | Check.Pass _ -> Alcotest.failf "%s escaped the %s campaign" name campaign
  | Check.Fail f ->
    let line = Check.replay_line f in
    Alcotest.(check bool) (name ^ ": replay line names the mutant") true
      (contains line ("--mutate " ^ name));
    let c, m, coord = Check.parse_replay line in
    Alcotest.(check string) (name ^ ": replay line names the campaign") campaign c;
    let replay () =
      match run ~mutant:m c coord with
      | Check.Fail g ->
        Alcotest.(check (list int)) (name ^ ": replay cuts at the same coordinate") f.Check.cuts
          g.Check.cuts;
        g.Check.reason
      | Check.Pass _ -> Alcotest.failf "%s: %s did not reproduce" name line
    in
    Alcotest.(check string) (name ^ ": replay reproduces the reason") f.Check.reason (replay ());
    Alcotest.(check string) (name ^ ": replay is deterministic") f.Check.reason (replay ());
    (match run c coord with
    | Check.Pass _ -> ()
    | Check.Fail g ->
      Alcotest.failf "%s: real engine fails the mutant's coordinate: %s" name g.Check.reason);
    Hashtbl.replace verified_rows fault f;
    f

let mutant_row fault =
  match Hashtbl.find_opt verified_rows fault with Some f -> f | None -> check_row fault

let test_mutant_early_durable () = ignore (mutant_row Inject.Early_durable_publish)

let test_mutant_unfenced_reproduce () = ignore (mutant_row Inject.Unfenced_reproduce)

(* The whole table: one row per seeded mutant, each caught by the
   campaign the table names. *)
let test_mutant_table () =
  Alcotest.(check int) "ten mutants" 10 (List.length Inject.catalogue);
  Alcotest.(check int) "distinct names" 10
    (List.length (List.sort_uniq compare (List.map (fun (_, n, _) -> n) Inject.catalogue)));
  List.iter (fun (f, _, _) -> ignore (mutant_row f)) Inject.catalogue

(* The explorer's replays pass on the real engine at the exact schedules
   and crash points that expose both ordering mutants. *)
let test_mutant_sites_clean_on_real_engine () =
  List.iter
    (fun fault ->
      let f = mutant_row fault in
      Alcotest.(check string) "explorer failure" "explore" f.Check.campaign)
    [ Inject.Early_durable_publish; Inject.Unfenced_reproduce ]

(* Schedules round-trip through the replay grammar; junk is rejected. *)
let test_sched_spec_roundtrip () =
  List.iter
    (fun sched ->
      let f =
        {
          Check.campaign = "explore";
          mutant = Inject.No_fault;
          params = [ ("system", "dude"); ("workload", "counter"); ("sched", sched) ];
          cuts = [ 3 ];
          reason = "";
        }
      in
      let c, _, coord = Check.parse_replay (Check.replay_line f) in
      Alcotest.(check string) "campaign" "explore" c;
      let got k = List.assoc_opt k coord in
      Alcotest.(check (option string)) "sched round-trip" (Some sched) (got "sched");
      Alcotest.(check (option string)) "cut round-trip" (Some "3") (got "crash-at"))
    [ "default"; "seed:42"; "prefix:1,0,2"; "prefix:" ];
  match run "explore" [ ("system", "dude"); ("workload", "counter"); ("sched", "sometimes") ] with
  | _ -> Alcotest.fail "junk schedule accepted"
  | exception Invalid_argument _ -> ()

(* The one budget reader honours DUDETM_CHECK_BUDGET. *)
let test_budget_knob () =
  let base = Check.explore_budget (Check.Scaled 1) in
  Unix.putenv "DUDETM_CHECK_BUDGET" "2";
  let scaled = Check.explore_budget (Check.budget_of_env ()) in
  Unix.putenv "DUDETM_CHECK_BUDGET" "";
  Alcotest.(check int) "crash sites scaled" (base.Check.crash_sites * 2) scaled.Check.crash_sites;
  Alcotest.(check int) "exhaustive runs scaled" (base.Check.exhaustive_runs * 2)
    scaled.Check.exhaustive_runs;
  Alcotest.(check bool) "knob cleared" true (Check.budget_of_env () = Check.Scaled 1)

(* A malformed knob is an error naming its variable, never a silent
   default; set-but-empty is the default. *)
let test_budget_knob_malformed () =
  let rejects var v =
    Unix.putenv var v;
    let r = try Ok (Check.budget_of_env ()) with Invalid_argument msg -> Error msg in
    Unix.putenv var "";
    match r with
    | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "%s=%s: error names the variable" var v) true
        (contains msg var)
    | Ok _ -> Alcotest.failf "%s=%s accepted" var v
  in
  List.iter (rejects "DUDETM_CHECK_BUDGET") [ "2x"; "0"; "-3" ];
  List.iter (rejects "DUDETM_CHECK_DEEP") [ "true"; "2" ];
  Unix.putenv "DUDETM_CHECK_DEEP" "1";
  let deep = Check.budget_of_env () in
  Unix.putenv "DUDETM_CHECK_DEEP" "0";
  let not_deep = Check.budget_of_env () in
  Unix.putenv "DUDETM_CHECK_DEEP" "";
  Alcotest.(check bool) "DEEP=1 is deep" true (deep = Check.Deep);
  Alcotest.(check bool) "DEEP=0 is the default" true (not_deep = Check.Scaled 1);
  Alcotest.(check bool) "empty is the default" true (Check.budget_of_env () = Check.Scaled 1)

(* A replay at a boundary beyond the run's count is well-defined: no cut
   fires and the run is judged as quiescent. *)
let test_replay_past_last_site () =
  let at k =
    [
      ("system", "dude");
      ("workload", "counter");
      ("threads", "2");
      ("txs", "1");
      ("sched", "default");
      ("crash-at", k);
    ]
  in
  let sites = (expect_pass "explore" (at "0")).Check.boundaries in
  Alcotest.(check bool) "some sites" true (sites > 0);
  ignore (expect_pass "explore" (at (string_of_int (sites + 10))))

let rejected ?mutant what campaign args =
  match run ?mutant campaign args with
  | _ -> Alcotest.failf "%s: accepted instead of rejected" what
  | exception Invalid_argument _ -> ()

(* A partial replay coordinate never falls back to a sweep. *)
let test_replay_needs_scenario () =
  rejected ~mutant:Inject.Skip_quorum_gate "replica kill without --scenario" "replica"
    [ ("crash-at", "4") ]

let test_crash2_needs_crash_at () =
  rejected "--crash2 without --crash-at" "batch" [ ("crash2", "3") ]

let test_foreign_coordinates () =
  rejected "--leg/--scenario on shards" "shards" [ ("leg", "attach"); ("scenario", "faulty") ]

(* Every campaign's uncut case: the life runs to quiescence, every device
   loses power, and the recovered image must keep every commit.  Shards
   and migrate recover it too, not only the campaigns whose lives always
   end in a crash. *)
let test_uncut_cases () =
  let needs =
    [
      ("explore", [ ("system", "dude"); ("workload", "counter"); ("sched", "default") ]);
      ("media", [ ("media-seed", "1"); ("faults", "heap") ]);
      ("recovery", [ ("leg", "attach") ]);
      ("daemons", [ ("daemon-seed", "1") ]);
      ("replica", [ ("scenario", "clean") ]);
    ]
  in
  Alcotest.(check int) "ten campaigns" 10 (List.length Check.campaign_docs);
  List.iter
    (fun (campaign, _) ->
      let args = Option.value (List.assoc_opt campaign needs) ~default:[] @ [ ("crash-at", "0") ] in
      let r = expect_pass campaign args in
      Alcotest.(check int) (campaign ^ ": one run") 1 r.Check.runs;
      Alcotest.(check bool) (campaign ^ ": counted boundaries") true (r.Check.boundaries > 0))
    Check.campaign_docs

(* The uncut schedule's own recovery catches a mutant: with the handoff
   seal skipped, a transaction acknowledged before the schedule ended is
   gone once every device loses power, though the live instance still
   shows it. *)
let test_migrate_uncut_recovery () =
  match run ~mutant:Inject.Skip_handoff_seal "migrate" [ ("crash-at", "0") ] with
  | Check.Pass _ -> Alcotest.fail "skip-handoff-seal escaped the recovery of the uncut schedule"
  | Check.Fail f ->
    Alcotest.(check (list int)) "no cut" [] f.Check.cuts;
    Alcotest.(check bool) ("an acknowledged transaction lost: " ^ f.Check.reason) true
      (contains f.Check.reason "acknowledged transaction" && contains f.Check.reason " lost")

(* -------------------------------------------------------------------- *)
(* Media-fault campaign                                                   *)
(* -------------------------------------------------------------------- *)

(* The clean engine under seeded corruption: every run either recovers
   fully or the loss is reported — never silently wrong data. *)
let test_media_clean_engine () =
  let r = expect_pass "media" [] in
  Alcotest.(check bool) "campaign ran and injected faults" true
    (r.Check.runs > 0 && List.assoc "faults injected" r.Check.tallies > 0)

let test_media_mutant_skip_crc () = ignore (mutant_row Inject.Skip_crc_verify)

(* -------------------------------------------------------------------- *)
(* Sharded cross-commit campaign                                          *)
(* -------------------------------------------------------------------- *)

(* The real engine survives power cuts at every sampled persist boundary
   during cross-shard commits: no partial transfer, nothing acked lost. *)
let test_shards_clean_engine () =
  let r = expect_pass "shards" [] in
  Alcotest.(check bool) "campaign explored boundaries" true
    (r.Check.runs > 1 && r.Check.boundaries > 0)

(* With the fragment gate skipped, some power cut must expose a partial
   transfer. *)
let test_shards_mutant_skip_fragment_gate () =
  let f = mutant_row Inject.Skip_fragment_gate in
  Alcotest.(check bool) "fails at a crash boundary, not the clean run" true (f.Check.cuts <> [])

(* -------------------------------------------------------------------- *)
(* Fault-injection scope                                                  *)
(* -------------------------------------------------------------------- *)

let disarmed what =
  Alcotest.(check bool) (what ^ ": no mutant armed") true
    (List.for_all (fun (m, _, _) -> not (Inject.armed m)) Inject.catalogue
    && Inject.armed Inject.No_fault);
  Alcotest.(check (float 0.)) (what ^ ": fault rate 0") 0. (Inject.daemon_fault_rate ())

(* [with_] restores the previous settings on return and on an exception,
   and a failing campaign leaves nothing armed behind it. *)
let test_inject_scoped () =
  disarmed "initially";
  let inner =
    Inject.with_ ~mutant:Inject.Skip_batch_seal ~daemon_fault_rate:0.5 (fun () ->
        Inject.with_ ~mutant:Inject.Skip_quorum_gate (fun () ->
            (Inject.armed Inject.Skip_quorum_gate, Inject.daemon_fault_rate ())))
  in
  Alcotest.(check (pair bool (float 0.))) "nested: mutant replaced, rate kept" (true, 0.5) inner;
  disarmed "after with_ returns";
  (match
     Inject.with_ ~mutant:Inject.Skip_crc_verify ~daemon_fault_rate:0.25 (fun () ->
         failwith "boom")
   with
  | () -> Alcotest.fail "with_ swallowed the exception"
  | exception Failure _ -> ());
  disarmed "after with_ raises";
  (match
     run ~mutant:Inject.Early_durable_publish "explore"
       [
         ("system", "dude");
         ("workload", "counter");
         ("threads", "3");
         ("txs", "1");
         ("sched", "default");
         ("evict", "0");
         ("evict-seed", "1");
       ]
   with
  | Check.Fail _ -> ()
  | Check.Pass _ -> Alcotest.fail "early-durable escaped its replay");
  disarmed "after a failing campaign"

(* Explore seeds its mutant into the software-TM DudeTM variants only. *)
let test_unseeded_system_disarmed () =
  ignore (expect_pass ~mutant:Inject.Early_durable_publish "explore" [ ("system", "dude-htm") ])

let suite =
  [
    Alcotest.test_case "clean: dude" `Quick (test_clean "dude");
    Alcotest.test_case "clean: dude-combine" `Quick (test_clean "dude-combine");
    Alcotest.test_case "clean: dude-htm" `Quick (test_clean "dude-htm");
    Alcotest.test_case "clean: mnemosyne" `Quick (test_clean "mnemosyne");
    Alcotest.test_case "clean: nvml" `Quick (test_clean "nvml");
    Alcotest.test_case "mutant caught: early durable publish" `Quick test_mutant_early_durable;
    Alcotest.test_case "mutant caught: unfenced reproduce" `Quick test_mutant_unfenced_reproduce;
    Alcotest.test_case "mutant triples pass on real engine" `Quick
      test_mutant_sites_clean_on_real_engine;
    Alcotest.test_case "mutant table: caught, replayed, passed by the real engine" `Slow
      test_mutant_table;
    Alcotest.test_case "sched spec round-trip" `Quick test_sched_spec_roundtrip;
    Alcotest.test_case "budget env knob" `Quick test_budget_knob;
    Alcotest.test_case "budget env knob: malformed values rejected" `Quick
      test_budget_knob_malformed;
    Alcotest.test_case "replay past last site is quiescent" `Quick test_replay_past_last_site;
    Alcotest.test_case "grammar: replica replay needs --scenario" `Quick test_replay_needs_scenario;
    Alcotest.test_case "grammar: --crash2 needs a fired --crash-at" `Quick
      test_crash2_needs_crash_at;
    Alcotest.test_case "grammar: undeclared coordinates rejected" `Quick test_foreign_coordinates;
    Alcotest.test_case "every campaign's uncut case recovers every commit" `Quick
      test_uncut_cases;
    Alcotest.test_case "migrate: the uncut schedule's recovery is judged" `Quick
      test_migrate_uncut_recovery;
    Alcotest.test_case "media campaign: clean engine never silently wrong" `Quick
      test_media_clean_engine;
    Alcotest.test_case "media campaign: skip-crc-verify mutant caught" `Quick
      test_media_mutant_skip_crc;
    Alcotest.test_case "shard campaign: clean engine all-or-nothing" `Slow test_shards_clean_engine;
    Alcotest.test_case "shard campaign: skip-fragment-gate mutant caught" `Slow
      test_shards_mutant_skip_fragment_gate;
    Alcotest.test_case "inject: nothing stays armed" `Quick test_inject_scoped;
    Alcotest.test_case "explore: dude-htm stays unmutated" `Quick test_unseeded_system_disarmed;
  ]
