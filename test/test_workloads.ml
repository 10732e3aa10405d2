(* Workload tests: Zipfian sampler, hash table and B+-tree model checks,
   TATP/YCSB/TPC-C drivers including TPC-C consistency under crash. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module W = Dudetm_workloads
module Ptm = B.Ptm_intf
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

let volatile ?(heap = 8 * 1024 * 1024) () = B.Volatile_stm.ptm ~heap_size:heap ()

(* ------------------------------- zipf -------------------------------- *)

let test_zipf_skew () =
  let z = W.Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Rng.create 11 in
  let counts = Array.make 1000 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let r = W.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 should receive close to its theoretical probability. *)
  let p0 = float_of_int counts.(0) /. float_of_int samples in
  let th0 = W.Zipf.pmf z 0 in
  check Alcotest.bool "rank-0 frequency near pmf" true (abs_float (p0 -. th0) < 0.02);
  check Alcotest.bool "rank 0 beats rank 500" true (counts.(0) > counts.(500));
  (* Higher theta concentrates more mass on the head. *)
  let z2 = W.Zipf.create ~n:1000 ~theta:1.07 in
  check Alcotest.bool "1.07 is more skewed than 0.99" true (W.Zipf.pmf z2 0 > th0)

let test_zipf_uniform_theta_zero () =
  let z = W.Zipf.create ~n:10 ~theta:0.0 in
  for i = 0 to 9 do
    check (Alcotest.float 1e-9) "uniform pmf" 0.1 (W.Zipf.pmf z i)
  done

let test_zipf_bounds () =
  let z = W.Zipf.create ~n:7 ~theta:0.99 in
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let r = W.Zipf.sample z rng in
    if r < 0 || r >= 7 then Alcotest.fail "sample out of range"
  done

let test_zipf_closed_form () =
  (* The pmf must match the closed form p(i) = i^-theta / H_{n,theta}
     exactly, sum to 1, and decrease monotonically. *)
  List.iter
    (fun theta ->
      let n = 200 in
      let z = W.Zipf.create ~n ~theta in
      let h = ref 0.0 in
      for i = 1 to n do
        h := !h +. (1.0 /. Float.pow (float_of_int i) theta)
      done;
      let sum = ref 0.0 in
      for i = 0 to n - 1 do
        let p = W.Zipf.pmf z i in
        let closed = 1.0 /. Float.pow (float_of_int (i + 1)) theta /. !h in
        if abs_float (p -. closed) > 1e-12 then
          Alcotest.failf "theta %.2f rank %d: pmf %.17g vs closed form %.17g" theta i p
            closed;
        if i > 0 && p > W.Zipf.pmf z (i - 1) +. 1e-15 then
          Alcotest.failf "theta %.2f: pmf increases at rank %d" theta i;
        sum := !sum +. p
      done;
      check (Alcotest.float 1e-9) "pmf sums to 1" 1.0 !sum)
    [ 0.0; 0.5; 0.99; 1.07 ]

let test_zipf_empirical_shape () =
  (* Whole-distribution check, not just the head: with 200k samples every
     rank's empirical frequency sits within a tight absolute band of its
     pmf. *)
  let n = 50 in
  let z = W.Zipf.create ~n ~theta:0.9 in
  let rng = Rng.create 77 in
  let samples = 200_000 in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let r = W.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  for i = 0 to n - 1 do
    let freq = float_of_int counts.(i) /. float_of_int samples in
    let p = W.Zipf.pmf z i in
    if abs_float (freq -. p) > 0.006 then
      Alcotest.failf "rank %d: frequency %.4f vs pmf %.4f" i freq p
  done

let test_zipf_invalid_args () =
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (W.Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "negative theta rejected"
    (Invalid_argument "Zipf.create: negative theta") (fun () ->
      ignore (W.Zipf.create ~n:10 ~theta:(-1.0)));
  Alcotest.check_raises "pmf rank out of range"
    (Invalid_argument "Zipf.pmf: rank out of range") (fun () ->
      ignore (W.Zipf.pmf (W.Zipf.create ~n:10 ~theta:0.5) 10))

(* ------------------------------- TATP -------------------------------- *)

let test_tatp_initial_locations () =
  let ptm = volatile () in
  let t = W.Tatp.setup ptm ~storage:W.Kv.Hash ~subscribers:64 in
  check Alcotest.int "subscriber count" 64 (W.Tatp.subscribers t);
  for s = 1 to 64 do
    check Alcotest.int64 "seeded location" (Int64.of_int (10_000 + s))
      (W.Tatp.peek_location t ~s_id:s)
  done

let test_tatp_update_location_model () =
  (* Mirror update_location's sampling with an identically-seeded RNG and
     check the table tracks the model exactly. *)
  let ptm = volatile () in
  let n = 40 in
  let t = W.Tatp.setup ptm ~storage:W.Kv.Hash ~subscribers:n in
  let model = Array.init (n + 1) (fun s -> Int64.of_int (10_000 + s)) in
  let rng = Rng.create 123 in
  let shadow = Rng.create 123 in
  for _ = 1 to 500 do
    W.Tatp.update_location t ~thread:0 ~rng;
    let s_id = 1 + Rng.int shadow n in
    let loc = Int64.logand (Rng.next_int64 shadow) 0xFFFFFFFFL in
    model.(s_id) <- loc
  done;
  for s = 1 to n do
    check Alcotest.int64
      (Printf.sprintf "subscriber %d tracks the model" s)
      model.(s)
      (W.Tatp.peek_location t ~s_id:s)
  done

let test_tatp_errors () =
  let ptm = volatile () in
  Alcotest.check_raises "zero subscribers rejected" (Invalid_argument "Tatp.setup")
    (fun () -> ignore (W.Tatp.setup ptm ~storage:W.Kv.Hash ~subscribers:0));
  let t = W.Tatp.setup ptm ~storage:W.Kv.Hash ~subscribers:8 in
  Alcotest.check_raises "unknown subscriber" (Failure "Tatp: missing subscriber")
    (fun () -> ignore (W.Tatp.peek_location t ~s_id:99))

(* ----------------------------- hash table ---------------------------- *)

let test_hashtable_model () =
  let ptm = volatile () in
  let h = W.Hashtable_app.setup ptm ~capacity:256 in
  let model = Hashtbl.create 64 in
  let rng = Rng.create 21 in
  for _ = 1 to 500 do
    let k = Int64.of_int (1 + Rng.int rng 200) in
    if Rng.bool rng then begin
      let v = Rng.next_int64 rng in
      ignore (W.Hashtable_app.insert h ~thread:0 ~key:k ~value:v);
      Hashtbl.replace model k v
    end
    else begin
      let got = W.Hashtable_app.lookup h ~thread:0 ~key:k in
      let want = Hashtbl.find_opt model k in
      if got <> want then Alcotest.fail "hash table diverged from model"
    end
  done;
  Hashtbl.iter
    (fun k v ->
      match W.Hashtable_app.lookup h ~thread:0 ~key:k with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.fail "final state mismatch")
    model

let test_hashtable_full () =
  let ptm = volatile () in
  let h = W.Hashtable_app.setup ptm ~capacity:16 in
  for i = 1 to 16 do
    ignore (W.Hashtable_app.insert h ~thread:0 ~key:(Int64.of_int i) ~value:0L)
  done;
  check Alcotest.bool "17th insert fails" false
    (W.Hashtable_app.insert h ~thread:0 ~key:99L ~value:0L);
  check Alcotest.bool "existing key still updatable when full" true
    (W.Hashtable_app.insert h ~thread:0 ~key:7L ~value:1L)

let test_hashtable_update_semantics () =
  let ptm = volatile () in
  let h = W.Hashtable_app.setup ptm ~capacity:64 in
  check Alcotest.bool "update of absent key fails" false
    (W.Hashtable_app.update h ~thread:0 ~key:5L ~value:9L);
  ignore (W.Hashtable_app.insert h ~thread:0 ~key:5L ~value:1L);
  check Alcotest.bool "update of present key succeeds" true
    (W.Hashtable_app.update h ~thread:0 ~key:5L ~value:9L);
  check (Alcotest.option Alcotest.int64) "updated value" (Some 9L)
    (W.Hashtable_app.lookup h ~thread:0 ~key:5L)

let test_hashtable_static_paths () =
  (* The same operations through NVML's static-transaction planning. *)
  let ptm = B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = 4 * 1024 * 1024 } in
  let h = W.Hashtable_app.setup ptm ~capacity:256 in
  for i = 1 to 100 do
    if not (W.Hashtable_app.insert h ~thread:0 ~key:(Int64.of_int i) ~value:(Int64.of_int (i * 2)))
    then Alcotest.fail "static insert failed"
  done;
  for i = 1 to 100 do
    check (Alcotest.option Alcotest.int64) "static lookup"
      (Some (Int64.of_int (i * 2)))
      (W.Hashtable_app.lookup h ~thread:0 ~key:(Int64.of_int i))
  done;
  check Alcotest.bool "static update" true (W.Hashtable_app.update h ~thread:0 ~key:50L ~value:0L);
  check (Alcotest.option Alcotest.int64) "static update visible" (Some 0L)
    (W.Hashtable_app.lookup h ~thread:0 ~key:50L)

(* ------------------------------ B+-tree ------------------------------ *)

let prop_bptree_model =
  QCheck2.Test.make ~name:"bptree: model equivalence under insert/update" ~count:30
    QCheck2.Gen.(list_size (int_range 1 400) (tup3 bool (int_range 1 300) int))
    (fun ops ->
      let ptm = volatile () in
      let tree = W.Bptree_app.create ptm in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (op, k, v) ->
          let key = Int64.of_int k and value = Int64.of_int v in
          if op then begin
            W.Bptree_app.insert tree ~thread:0 ~key ~value;
            Hashtbl.replace model key value
          end
          else
            let got = W.Bptree_app.update tree ~thread:0 ~key ~value in
            if Hashtbl.mem model key then begin
              if not got then QCheck2.Test.fail_report "update of present key failed";
              Hashtbl.replace model key value
            end
            else if got then QCheck2.Test.fail_report "update of absent key succeeded")
        ops;
      W.Bptree_app.check_invariants tree;
      let bindings = W.Bptree_app.peek_bindings tree in
      let model_sorted =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
      in
      bindings = model_sorted)

let test_bptree_sequential_and_min () =
  let ptm = volatile () in
  let tree = W.Bptree_app.create ptm in
  for i = 100 downto 1 do
    W.Bptree_app.insert tree ~thread:0 ~key:(Int64.of_int i) ~value:(Int64.of_int (-i))
  done;
  W.Bptree_app.check_invariants tree;
  let bindings = W.Bptree_app.peek_bindings tree in
  check Alcotest.(pair int64 int64) "min binding" (1L, -1L) (List.hd bindings);
  check Alcotest.int "all keys present" 100 (List.length bindings)

let test_bptree_concurrent_inserts () =
  let ptm = volatile () in
  let tree = W.Bptree_app.create ptm in
  ignore
    (Sched.run (fun () ->
         for th = 0 to 3 do
           ignore
             (Sched.spawn (string_of_int th) (fun () ->
                  for i = 0 to 249 do
                    let k = Int64.of_int (1 + (th * 1000) + i) in
                    W.Bptree_app.insert tree ~thread:th ~key:k ~value:k
                  done))
         done));
  W.Bptree_app.check_invariants tree;
  check Alcotest.int "1000 distinct keys present" 1000
    (List.length (W.Bptree_app.peek_bindings tree))

(* ----------------------------- TATP/YCSB ----------------------------- *)

let test_tatp_both_storages () =
  List.iter
    (fun storage ->
      let ptm = volatile () in
      let t = W.Tatp.setup ptm ~storage ~subscribers:200 in
      let rng = Rng.create 31 in
      for _ = 1 to 300 do
        W.Tatp.update_location t ~thread:0 ~rng
      done;
      (* Every subscriber still resolvable. *)
      for s = 1 to 200 do
        ignore (W.Tatp.peek_location t ~s_id:s)
      done)
    [ W.Kv.Hash; W.Kv.Tree ]

let test_bptree_range_scan () =
  let ptm = volatile () in
  let tree = W.Bptree_app.create ptm in
  for i = 1 to 200 do
    W.Bptree_app.insert tree ~thread:0 ~key:(Int64.of_int (2 * i)) ~value:(Int64.of_int i)
  done;
  let scan lo hi =
    match
      ptm.Ptm.atomically ~thread:0 (fun tx ->
          W.Bptree_app.fold_range_tx tree tx ~lo:(Int64.of_int lo) ~hi:(Int64.of_int hi)
            ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
    with
    | Some (l, _) -> List.rev l
    | None -> assert false
  in
  check Alcotest.int "full scan sees everything" 200 (List.length (scan 0 1000));
  check
    Alcotest.(list (pair int64 int64))
    "bounded scan in order"
    [ (10L, 5L); (12L, 6L); (14L, 7L) ]
    (scan 10 14);
  check Alcotest.int "scan over odd keys between bindings" 3 (List.length (scan 9 15));
  check Alcotest.int "empty range" 0 (List.length (scan 401 500));
  (* Keys are in ascending order. *)
  let keys = List.map fst (scan 0 1000) in
  check Alcotest.bool "ascending" true (List.sort compare keys = keys)

let test_ycsb_mixes () =
  List.iter
    (fun (name, mix) ->
      let ptm = volatile () in
      let y = W.Ycsb.setup ptm ~records:300 ~theta:0.99 () in
      let rng = Rng.create 51 in
      let counter = ref 0 in
      for _ = 1 to 400 do
        ignore (W.Ycsb.mixed_transaction y mix ~thread:0 ~rng ~insert_counter:counter)
      done;
      W.Bptree_app.check_invariants (W.Ycsb.tree y);
      let population = List.length (W.Bptree_app.peek_bindings (W.Ycsb.tree y)) in
      if mix.W.Ycsb.inserts > 0.0 then begin
        if population <> 300 + !counter then
          Alcotest.failf "%s: population %d but %d inserts" name population !counter
      end
      else check Alcotest.int (name ^ ": population unchanged") 300 population)
    [
      ("A", W.Ycsb.workload_a);
      ("B", W.Ycsb.workload_b);
      ("C", W.Ycsb.workload_c);
      ("D", W.Ycsb.workload_d);
      ("E", W.Ycsb.workload_e);
      ("F", W.Ycsb.workload_f);
    ]

let test_ycsb_runs () =
  let ptm = volatile () in
  let y = W.Ycsb.setup ptm ~records:500 ~theta:0.99 () in
  let rng = Rng.create 41 in
  for _ = 1 to 500 do
    ignore (W.Ycsb.transaction_tid y ~thread:0 ~rng)
  done;
  W.Bptree_app.check_invariants (W.Ycsb.tree y);
  check Alcotest.int "record population unchanged" 500
    (List.length (W.Bptree_app.peek_bindings (W.Ycsb.tree y)))

(* ------------------------------- TPC-C ------------------------------- *)

let run_tpcc ptm ~storage ~txs =
  let t = W.Tpcc.setup ptm ~storage ~items:100 ~expected_orders:1024 () in
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         Sched.join ~label:"tpcc"
           (List.init 4 (fun th ->
                Sched.spawn (string_of_int th) (fun () ->
                    let rng = Rng.create (61 + th) in
                    for _ = 1 to txs do
                      ignore (W.Tpcc.new_order t ~thread:th ~rng ())
                    done)));
         ptm.Ptm.drain ();
         ptm.Ptm.stop ()));
  t

let test_tpcc_consistency_volatile () =
  List.iter
    (fun storage ->
      let t = run_tpcc (volatile ()) ~storage ~txs:30 in
      W.Tpcc.consistency_check t;
      let total = List.init 10 (fun d -> W.Tpcc.order_count t ~district:(d + 1)) in
      check Alcotest.int "every order accounted" 120 (List.fold_left ( + ) 0 total))
    [ W.Kv.Hash; W.Kv.Tree ]

let test_tpcc_consistency_nvml_static () =
  let ptm = B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = 8 * 1024 * 1024 } in
  let t = run_tpcc ptm ~storage:W.Kv.Hash ~txs:15 in
  W.Tpcc.consistency_check t

let test_tpcc_fixed_district () =
  let ptm = volatile () in
  let t = W.Tpcc.setup ptm ~storage:W.Kv.Tree ~items:100 () in
  ignore
    (Sched.run (fun () ->
         for th = 0 to 3 do
           ignore
             (Sched.spawn (string_of_int th) (fun () ->
                  let rng = Rng.create (71 + th) in
                  for _ = 1 to 20 do
                    ignore (W.Tpcc.new_order t ~thread:th ~rng ~district:(th + 1) ())
                  done))
         done));
  W.Tpcc.consistency_check t;
  for d = 1 to 4 do
    check Alcotest.int "fixed district received its orders" 20 (W.Tpcc.order_count t ~district:d)
  done;
  for d = 5 to 10 do
    check Alcotest.int "other districts empty" 0 (W.Tpcc.order_count t ~district:d)
  done

let tpcc_crash_roundtrip ~storage ~crash_cycles ~evict ~seed () =
  (* The headline end-to-end test: TPC-C on DudeTM, crash mid-run with
     adversarial evictions, recover, re-attach the database from its root
     directory, and check full TPC-C invariants across all seven tables. *)
  let cfg =
    {
      Config.default with
      Config.heap_size = 8 * 1024 * 1024;
      nthreads = 4;
      vlog_capacity = 8192;
      plog_size = 1 lsl 17;
    }
  in
  let ptm, d = B.Dude_ptm.Stm.ptm cfg in
  let t = W.Tpcc.setup ptm ~storage ~items:100 ~expected_orders:2048 () in
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         for th = 0 to 3 do
           ignore
             (Sched.spawn (string_of_int th) (fun () ->
                  let rng = Rng.create (seed + th) in
                  while true do
                    ignore (W.Tpcc.transaction t ~thread:th ~rng ())
                  done))
         done;
         Sched.advance crash_cycles;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:evict ~rng:(Rng.create seed) (D.nvm d);
  let ptm2, _, report = B.Dude_ptm.Stm.attach_ptm cfg (D.nvm d) in
  let t2 = W.Tpcc.attach ptm2 in
  W.Tpcc.consistency_check t2;
  report.Dudetm_core.Dudetm.durable

let test_tpcc_payment_and_mix () =
  List.iter
    (fun ptm ->
      let t = W.Tpcc.setup ptm ~storage:W.Kv.Hash ~items:50 ~customers:20
          ~expected_orders:1024 () in
      ignore
        (Sched.run (fun () ->
             ptm.Ptm.start ();
             Sched.join ~label:"mix"
               (List.init 4 (fun th ->
                    Sched.spawn (string_of_int th) (fun () ->
                        let rng = Rng.create (101 + th) in
                        for _ = 1 to 40 do
                          ignore (W.Tpcc.transaction t ~thread:th ~rng ())
                        done)));
             ptm.Ptm.drain ();
             ptm.Ptm.stop ()));
      W.Tpcc.consistency_check t)
    [ volatile (); B.Nvml.ptm { B.Nvml.default_config with B.Nvml.heap_size = 8 * 1024 * 1024 } ]

let test_tpcc_order_status_total () =
  let ptm = volatile () in
  let t = W.Tpcc.setup ptm ~storage:W.Kv.Tree ~items:50 ~customers:20 () in
  let rng = Rng.create 7 in
  for _ = 1 to 10 do
    ignore (W.Tpcc.new_order t ~thread:0 ~rng ~district:1 ())
  done;
  (* Order-Status reads a consistent order; totals are positive. *)
  for _ = 1 to 10 do
    let total = W.Tpcc.order_status t ~thread:0 ~rng ~district:1 () in
    if total <= 0L then Alcotest.failf "order total %Ld not positive" total
  done;
  (* Districts with no orders return 0. *)
  check Alcotest.int64 "empty district" 0L (W.Tpcc.order_status t ~thread:0 ~rng ~district:9 ())

let test_tpcc_crash_consistency_dudetm () =
  let d = tpcc_crash_roundtrip ~storage:W.Kv.Tree ~crash_cycles:3_000_000 ~evict:0.5 ~seed:81 () in
  check Alcotest.bool "substantial work recovered (tree)" true (d > 20);
  let d = tpcc_crash_roundtrip ~storage:W.Kv.Hash ~crash_cycles:2_000_000 ~evict:0.3 ~seed:4 () in
  check Alcotest.bool "substantial work recovered (hash)" true (d > 20)

let test_tpcc_recover_and_extend () =
  (* After recovery, the re-attached database keeps serving New Order
     transactions. *)
  let cfg =
    {
      Config.default with
      Config.heap_size = 8 * 1024 * 1024;
      nthreads = 2;
      vlog_capacity = 8192;
      plog_size = 1 lsl 17;
    }
  in
  let ptm, d = B.Dude_ptm.Stm.ptm cfg in
  let t = W.Tpcc.setup ptm ~storage:W.Kv.Tree ~items:100 () in
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         for th = 0 to 1 do
           ignore
             (Sched.spawn (string_of_int th) (fun () ->
                  let rng = Rng.create (91 + th) in
                  while true do
                    ignore (W.Tpcc.new_order t ~thread:th ~rng ())
                  done))
         done;
         Sched.advance 1_500_000;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:0.2 ~rng:(Rng.create 7) (D.nvm d);
  let ptm2, _, _ = B.Dude_ptm.Stm.attach_ptm cfg (D.nvm d) in
  let t2 = W.Tpcc.attach ptm2 in
  let before = List.init 10 (fun i -> W.Tpcc.order_count t2 ~district:(i + 1)) in
  ignore
    (Sched.run (fun () ->
         ptm2.Ptm.start ();
         let rng = Rng.create 5 in
         for _ = 1 to 20 do
           ignore (W.Tpcc.new_order t2 ~thread:0 ~rng ())
         done;
         ptm2.Ptm.drain ();
         ptm2.Ptm.stop ()));
  W.Tpcc.consistency_check t2;
  let after = List.init 10 (fun i -> W.Tpcc.order_count t2 ~district:(i + 1)) in
  check Alcotest.int "20 new orders after recovery"
    (List.fold_left ( + ) 0 before + 20)
    (List.fold_left ( + ) 0 after)

let suite =
  [
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf uniform at theta 0" `Quick test_zipf_uniform_theta_zero;
    Alcotest.test_case "zipf sample bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipf pmf matches closed form" `Quick test_zipf_closed_form;
    Alcotest.test_case "zipf empirical shape" `Quick test_zipf_empirical_shape;
    Alcotest.test_case "zipf invalid arguments" `Quick test_zipf_invalid_args;
    Alcotest.test_case "tatp initial locations" `Quick test_tatp_initial_locations;
    Alcotest.test_case "tatp update-location model" `Quick test_tatp_update_location_model;
    Alcotest.test_case "tatp error paths" `Quick test_tatp_errors;
    Alcotest.test_case "hash table model check" `Quick test_hashtable_model;
    Alcotest.test_case "hash table full behaviour" `Quick test_hashtable_full;
    Alcotest.test_case "hash table update semantics" `Quick test_hashtable_update_semantics;
    Alcotest.test_case "hash table static (NVML) paths" `Quick test_hashtable_static_paths;
    QCheck_alcotest.to_alcotest prop_bptree_model;
    Alcotest.test_case "bptree sequential + min binding" `Quick test_bptree_sequential_and_min;
    Alcotest.test_case "bptree concurrent inserts" `Quick test_bptree_concurrent_inserts;
    Alcotest.test_case "tatp on both storages" `Quick test_tatp_both_storages;
    Alcotest.test_case "bptree range scan" `Quick test_bptree_range_scan;
    Alcotest.test_case "ycsb workload mixes" `Quick test_ycsb_mixes;
    Alcotest.test_case "ycsb session store" `Quick test_ycsb_runs;
    Alcotest.test_case "tpcc invariants (volatile)" `Quick test_tpcc_consistency_volatile;
    Alcotest.test_case "tpcc invariants (NVML static)" `Quick test_tpcc_consistency_nvml_static;
    Alcotest.test_case "tpcc fixed-district variant" `Quick test_tpcc_fixed_district;
    Alcotest.test_case "tpcc payment + mixed drivers" `Quick test_tpcc_payment_and_mix;
    Alcotest.test_case "tpcc order-status" `Quick test_tpcc_order_status_total;
    Alcotest.test_case "tpcc crash consistency on DudeTM" `Slow
      test_tpcc_crash_consistency_dudetm;
    Alcotest.test_case "tpcc recover and extend" `Slow test_tpcc_recover_and_extend;
  ]
