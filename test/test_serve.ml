(* Serving front-end tests.

   - admission gate: hysteresis never flaps inside the (untrip, trip)
     band, pressure trips it regardless of depth, inconsistent thresholds
     are rejected;
   - shed requests get the typed [R_overloaded] reply and provably never
     reach the engine (the application write callback is the witness);
   - deficit-round-robin fairness: a cold tenant's single request does
     not wait behind a hot tenant's entire backlog;
   - closed-loop and open-loop arrivals agree on goodput at low load
     (both far from the knee, nothing shed);
   - by-reference descriptor handoff: the session loses write access at
     [submit] and regains it with the reply;
   - the seeded [Skip_admission_gate] mutant never sheds and lets the
     queue overrun its capacity bound (the campaign catches the
     durability half of the bug; this is the shedding half);
   - log2 latency histograms (the serve bench's ledger rows) and the
     tenant-skew workload generator;
   - [Drain_stalled] diagnostics carry the front-end queue context. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Config = Dudetm_core.Config
module Tenant_mix = Dudetm_workloads.Tenant_mix
module Serve = Dudetm_serve.Serve
module Admission = Dudetm_serve.Admission
module SL = Dudetm_serve.Serve_load
module Srv = SL.Srv

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------ admission ------------------------------- *)

let test_admission_no_flap () =
  let g = Admission.create ~trip:6 ~untrip:2 in
  (* Oscillate strictly inside the hysteresis band: no transitions. *)
  for _ = 1 to 50 do
    ignore (Admission.observe g ~depth:3 ~pressure:false);
    ignore (Admission.observe g ~depth:5 ~pressure:false)
  done;
  check Alcotest.int "no trips inside the band" 0 (Admission.trips g);
  check Alcotest.int "no untrips inside the band" 0 (Admission.untrips g);
  (* Trip once, then oscillate inside the band again: still shedding. *)
  ignore (Admission.observe g ~depth:6 ~pressure:false);
  for _ = 1 to 50 do
    ignore (Admission.observe g ~depth:5 ~pressure:false);
    ignore (Admission.observe g ~depth:3 ~pressure:false)
  done;
  check Alcotest.int "one trip" 1 (Admission.trips g);
  check Alcotest.bool "still shedding inside the band" true
    (Admission.state g = Admission.Shedding);
  (* Reopen only at the untrip threshold. *)
  ignore (Admission.observe g ~depth:2 ~pressure:false);
  check Alcotest.int "one untrip" 1 (Admission.untrips g);
  check Alcotest.bool "open again" true (Admission.state g = Admission.Open)

let test_admission_pressure () =
  let g = Admission.create ~trip:100 ~untrip:10 in
  check Alcotest.bool "ring pressure trips at depth 0" false
    (Admission.observe g ~depth:0 ~pressure:true = Admission.Open);
  (* Depth below untrip but pressure still on: stays shedding. *)
  check Alcotest.bool "holds while pressure lasts" false
    (Admission.observe g ~depth:0 ~pressure:true = Admission.Open);
  check Alcotest.bool "reopens when pressure clears" true
    (Admission.observe g ~depth:0 ~pressure:false = Admission.Open)

let test_admission_invalid () =
  let raised =
    try
      ignore (Admission.create ~trip:2 ~untrip:5);
      false
    with Admission.Invalid_admission _ -> true
  in
  check Alcotest.bool "untrip >= trip rejected" true raised

(* --------------------- direct-pipeline test fixture ---------------------- *)

let slot_of_key key = 64 + (8 * Int64.to_int key)

(* [entered] counts application-body entries: a shed request that ever
   reaches the engine would bump it. *)
let make_app ?(shard = 0) entered =
  {
    Srv.shard_of = (fun _ -> shard);
    write =
      (fun tx ~shard ~key ~payload ->
        incr entered;
        Srv.Sh.write tx ~shard (slot_of_key key) payload);
    read = (fun tx ~shard ~key -> Srv.Sh.read tx ~shard (slot_of_key key));
  }

let write_op i = Serve.Write { key = Int64.of_int i; payload = Int64.of_int (i + 1) }

(* ------------------- shed: typed, and never executed --------------------- *)

let test_shed_typed_never_executed () =
  let scfg =
    {
      Serve.default_config with
      Serve.queue_capacity = 4;
      trip_depth = 3;
      untrip_depth = 1;
    }
  in
  let entered = ref 0 in
  let n = 50 in
  ignore
    (Sched.run (fun () ->
         let sh = Srv.Sh.create ~nshards:1 (SL.engine_cfg ~workers:2 ()) in
         let srv = Srv.create ~scfg ~app:(make_app entered) ~ntenants:1 sh in
         Srv.start srv;
         (* Flood without yielding: the dispatchers cannot drain between
            submits, so the queue hits its bound and the gate trips. *)
         let descs = List.init n (fun i -> Srv.make_desc ~tenant:0 ~session:0 (write_op i)) in
         let accepted = List.filter (fun d -> Srv.submit srv d) descs in
         List.iter (fun d -> ignore (Srv.await d)) accepted;
         let executed = ref 0 and shed = ref 0 and other = ref 0 in
         List.iter
           (fun d ->
             match Srv.reply d with
             | Serve.R_executed _ -> incr executed
             | Serve.R_overloaded -> incr shed
             | _ -> incr other)
           descs;
         check Alcotest.bool "some requests were shed" true (!shed > 0);
         check Alcotest.bool "some requests executed" true (!executed > 0);
         check Alcotest.int "every reply is executed or overloaded" 0 !other;
         check Alcotest.int "all accounted for" n (!executed + !shed);
         check Alcotest.int "shed total matches" !shed (Srv.shed_total srv);
         (* The witness: the engine ran the application body exactly once
            per executed request — shed requests never reached it. *)
         check Alcotest.int "shed never reached the engine" !executed !entered;
         Srv.drain srv;
         Srv.stop srv))

(* ----------------------------- DRR fairness ------------------------------ *)

let test_fairness_cold_tenant () =
  let scfg =
    {
      Serve.default_config with
      Serve.queue_capacity = 64;
      trip_depth = 60;
      untrip_depth = 8;
      drr_quantum = 2;
    }
  in
  let entered = ref 0 in
  let hot_n = 40 in
  ignore
    (Sched.run (fun () ->
         let sh = Srv.Sh.create ~nshards:1 (SL.engine_cfg ~workers:2 ()) in
         let srv = Srv.create ~scfg ~app:(make_app entered) ~ntenants:2 sh in
         Srv.start srv;
         (* Tenant 0 floods a backlog; tenant 1 then submits one request.
            Deficit-round-robin must serve the cold tenant within a
            round, not behind the whole hot backlog. *)
         let hot =
           List.init hot_n (fun i ->
               let d = Srv.make_desc ~tenant:0 ~session:0 (write_op i) in
               check Alcotest.bool "hot accepted" true (Srv.submit srv d);
               d)
         in
         let cold = Srv.make_desc ~tenant:1 ~session:0 (write_op 1000) in
         check Alcotest.bool "cold accepted" true (Srv.submit srv cold);
         (match Srv.await cold with
         | Serve.R_executed _ -> ()
         | _ -> Alcotest.fail "cold request must execute");
         let hot_done_at_cold_reply = Srv.tenant_done srv 0 in
         check Alcotest.bool
           (Printf.sprintf "cold reply arrived with only %d/%d hot done"
              hot_done_at_cold_reply hot_n)
           true
           (hot_done_at_cold_reply < hot_n / 2);
         List.iter (fun d -> ignore (Srv.await d)) hot;
         check Alcotest.int "hot backlog all executed" hot_n (Srv.tenant_done srv 0);
         Srv.drain srv;
         Srv.stop srv))

(* ---------------------- closed = open at low load ------------------------ *)

let test_closed_open_agree () =
  let closed =
    SL.run ~seed:11 ~nshards:1 ~ntenants:2 ~sessions:2 ~reqs:60
      ~mode:(SL.Closed { think = 20000 })
      ()
  in
  check Alcotest.int "closed: nothing shed at low load" 0 closed.SL.r_shed;
  let open_ =
    SL.run ~seed:11 ~nshards:1 ~ntenants:2 ~sessions:2 ~reqs:60
      ~mode:(SL.Open { ktps = closed.SL.r_achieved_ktps })
      ()
  in
  check Alcotest.int "open: nothing shed at low load" 0 open_.SL.r_shed;
  check Alcotest.int "open: arrivals never window-blocked" 0 open_.SL.r_blocked;
  let ratio = open_.SL.r_achieved_ktps /. closed.SL.r_achieved_ktps in
  check Alcotest.bool
    (Printf.sprintf "goodput agrees within 25%% (ratio %.2f)" ratio)
    true
    (ratio > 0.75 && ratio < 1.25)

(* ----------------------- descriptor ownership ---------------------------- *)

let test_descriptor_ownership () =
  let entered = ref 0 in
  ignore
    (Sched.run (fun () ->
         let sh = Srv.Sh.create ~nshards:1 (SL.engine_cfg ~workers:2 ()) in
         let srv = Srv.create ~app:(make_app entered) ~ntenants:1 sh in
         Srv.start srv;
         let d = Srv.make_desc ~tenant:0 ~session:0 (write_op 0) in
         Srv.set_op d (write_op 1);
         check Alcotest.bool "accepted" true (Srv.submit srv d);
         let in_flight_raises f =
           try
             f ();
             false
           with Serve.Descriptor_in_flight _ -> true
         in
         check Alcotest.bool "set_op while in flight raises" true
           (in_flight_raises (fun () -> Srv.set_op d (write_op 2)));
         check Alcotest.bool "reply while in flight raises" true
           (in_flight_raises (fun () -> ignore (Srv.reply d)));
         check Alcotest.bool "double submit raises" true
           (in_flight_raises (fun () -> ignore (Srv.submit srv d)));
         (match Srv.await d with
         | Serve.R_executed _ -> ()
         | _ -> Alcotest.fail "write must execute");
         (* Ownership is back: the session may touch it again. *)
         Srv.set_op d (write_op 3);
         check Alcotest.bool "resubmit after reply accepted" true (Srv.submit srv d);
         ignore (Srv.await d);
         Srv.drain srv;
         Srv.stop srv))

(* --------------------------- mutant shedding ----------------------------- *)

let test_mutant_never_sheds () =
  let scfg =
    {
      Serve.default_config with
      Serve.queue_capacity = 4;
      trip_depth = 3;
      untrip_depth = 1;
      slots_per_session = 16;
    }
  in
  let r =
    Dudetm_sim.Inject.with_ ~mutant:Skip_admission_gate (fun () ->
        SL.run ~scfg ~seed:11 ~nshards:1 ~ntenants:2 ~sessions:2 ~reqs:40
          ~mode:(SL.Open { ktps = 50000.0 })
          ())
  in
  check Alcotest.int "mutant sheds nothing" 0 r.SL.r_shed;
  check Alcotest.bool
    (Printf.sprintf "mutant queue overran its capacity bound (hwm %d)"
       r.SL.r_depth_hwm)
    true
    (r.SL.r_depth_hwm > scfg.Serve.queue_capacity)

(* ------------------------- log2 histograms ------------------------------- *)

let test_log2_histogram () =
  check Alcotest.int "bucket of 1" 0 (Dudetm_trace.Trace.bucket_of 1);
  check Alcotest.int "bucket of 2" 1 (Dudetm_trace.Trace.bucket_of 2);
  check Alcotest.int "bucket of 3" 1 (Dudetm_trace.Trace.bucket_of 3);
  check Alcotest.int "bucket of 1000" 9 (Dudetm_trace.Trace.bucket_of 1000);
  let r = Stats.Latency.create () in
  List.iter (Stats.Latency.record r) [ 1; 2; 3; 1000 ];
  check
    Alcotest.(list (pair int int))
    "sparse histogram"
    [ (0, 1); (1, 2); (9, 1) ]
    (Stats.Latency.log2_histogram r)

(* ---------------------------- tenant mix --------------------------------- *)

let test_tenant_mix () =
  let ntenants = 4 and keys_per_tenant = 256 and nshards = 4 in
  let mix = Tenant_mix.create ~ntenants ~keys_per_tenant ~nshards () in
  let rng = Rng.create 42 in
  for tenant = 0 to ntenants - 1 do
    let lo, hi = Tenant_mix.tenant_range mix ~tenant in
    check Alcotest.bool "range is the tenant's stripe" true
      (Int64.to_int lo = tenant * keys_per_tenant
      && Int64.to_int hi = (tenant + 1) * keys_per_tenant);
    for _ = 1 to 200 do
      let key = Tenant_mix.sample_key mix ~tenant rng in
      check Alcotest.bool "key inside the tenant's stripe" true
        (key >= lo && key < hi);
      let s = Tenant_mix.shard_of mix key in
      check Alcotest.bool "shard routing in range" true (s >= 0 && s < nshards)
    done
  done;
  (* Zipf skew: the hottest key of a tenant dominates a uniform draw. *)
  let counts = Hashtbl.create 64 in
  for _ = 1 to 2000 do
    let k = Tenant_mix.sample_key mix ~tenant:0 rng in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  check Alcotest.bool
    (Printf.sprintf "zipf skew (hottest key drawn %d/2000)" hottest)
    true (hottest > 100);
  (* Read fraction tracks ro_permille. *)
  let reads = ref 0 in
  for _ = 1 to 2000 do
    if Tenant_mix.is_read mix ~tenant:0 rng then incr reads
  done;
  check Alcotest.bool
    (Printf.sprintf "read fraction near 50%% (%d/2000)" !reads)
    true
    (!reads > 800 && !reads < 1200)

(* ------------------------ drain diagnostics ------------------------------ *)

(* A real stall through [Srv.drain] with a one-cycle budget: requests
   still in flight at the deadline (the front end's own stall), and an
   engine that has acked every write but not yet reproduced it (the
   stall [Sh.drain] raises).  Both payloads must carry the front-end
   context next to every shard's engine diagnostic, each labelled with its
   shard — also when all traffic lands on shard 1. *)
let test_drain_context () =
  let stall ~await_all ~shard =
    let entered = ref 0 in
    let msg = ref None in
    ignore
      (Sched.run (fun () ->
           let cfg = { (SL.engine_cfg ~workers:2 ()) with Config.drain_budget = 1 } in
           let sh = Srv.Sh.create ~nshards:2 cfg in
           let srv = Srv.create ~app:(make_app ~shard entered) ~ntenants:1 sh in
           Srv.start srv;
           let descs = List.init 8 (fun i -> Srv.make_desc ~tenant:0 ~session:0 (write_op i)) in
           let accepted = List.filter (fun d -> Srv.submit srv d) descs in
           if await_all then List.iter (fun d -> ignore (Srv.await d)) accepted;
           match Srv.drain srv with
           | () -> ()
           | exception Dudetm_core.Dudetm.Drain_stalled m -> msg := Some m));
    !msg
  in
  List.iter
    (fun (what, await_all, shard, needles) ->
      match stall ~await_all ~shard with
      | None -> Alcotest.fail (what ^ ": drain returned despite a 1-cycle budget")
      | Some msg ->
        List.iter
          (fun needle ->
            check Alcotest.bool
              (Printf.sprintf "%s: diagnostic carries %s" what needle)
              true (contains msg needle))
          ([ "shard 0: drain stalled after 1 cycles"; "shard 1: drain stalled after 1 cycles";
             "queue_depth="; "shed=" ]
          @ needles))
    [
      ("requests in flight", false, 0, [ "in_flight=8" ]);
      ("engine behind", true, 0, [ "in_flight=0"; "shard 0: drain stalled after 1 cycles: last_tid=8" ]);
      ("requests in flight on shard 1", false, 1, [ "in_flight=8" ]);
      ("engine behind on shard 1", true, 1, [ "in_flight=0"; "shard 1: drain stalled after 1 cycles: last_tid=8" ]);
    ]

let suite =
  [
    Alcotest.test_case "admission: no flap inside hysteresis band" `Quick
      test_admission_no_flap;
    Alcotest.test_case "admission: ring pressure trips the gate" `Quick
      test_admission_pressure;
    Alcotest.test_case "admission: inconsistent thresholds rejected" `Quick
      test_admission_invalid;
    Alcotest.test_case "shed replies typed, never reach the engine" `Quick
      test_shed_typed_never_executed;
    Alcotest.test_case "DRR: cold tenant not stuck behind hot backlog" `Quick
      test_fairness_cold_tenant;
    Alcotest.test_case "closed and open loops agree at low load" `Quick
      test_closed_open_agree;
    Alcotest.test_case "descriptor handoff: in-flight access raises" `Quick
      test_descriptor_ownership;
    Alcotest.test_case "skip-admission-gate mutant never sheds" `Quick
      test_mutant_never_sheds;
    Alcotest.test_case "log2 latency histogram and export" `Quick
      test_log2_histogram;
    Alcotest.test_case "tenant mix: stripes, routing, skew" `Quick
      test_tenant_mix;
    Alcotest.test_case "drain diagnostic carries front-end context" `Quick
      test_drain_context;
  ]
