(* Sharded DudeTM tests: single-shard and cross-shard transactions, the
   vector watermark, cross-shard all-or-nothing crash recovery, and the
   recovery vote. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

exception Crashed

let small_cfg ?(nthreads = 3) () =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads;
    vlog_capacity = 256;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    checkpoint_records = 2;
    seed = 7;
  }

(* Word layout inside every shard's root block:
   0        balance (cross-shard transfers preserve the global sum)
   8        single-shard local counter
   16+8*p   pairwise stamp: the latest transfer between this shard and
            partner [p].  Both sides of a transfer write the same stamp, so
            after any crash + recovery the two sides of every pair must
            agree — the all-or-nothing oracle. *)
let balance_off = 0
let local_off = 8
let pair_off p = 16 + (8 * p)

let initial_balance = 1_000L

let seed_shards sh nshards =
  for s = 0 to nshards - 1 do
    ignore
      (Sh.atomically sh ~thread:0 ~shards:[ s ] (fun tx ->
           Sh.write tx ~shard:s balance_off initial_balance))
  done

let transfer sh ~thread ~a ~b ~stamp amt =
  Sh.atomically sh ~thread ~shards:[ a; b ] (fun tx ->
      let ba = Sh.read tx ~shard:a balance_off in
      let bb = Sh.read tx ~shard:b balance_off in
      Sh.write tx ~shard:a balance_off (Int64.sub ba amt);
      Sh.write tx ~shard:b balance_off (Int64.add bb amt);
      Sh.write tx ~shard:a (pair_off b) (Int64.of_int stamp);
      Sh.write tx ~shard:b (pair_off a) (Int64.of_int stamp))

let bump sh ~thread s =
  Sh.atomically sh ~thread ~shards:[ s ] (fun tx ->
      Sh.write tx ~shard:s local_off (Int64.add (Sh.read tx ~shard:s local_off) 1L))

(* The all-or-nothing + sum oracle on a recovered (or drained) system.
   Every transfer preserves the sum among shards whose seed is durable, and
   a shard's seed is tid 1 on that shard — durable whenever anything later
   on the shard is (contiguity).  Both sides of every transfer write the
   same pairwise stamp, so the sides must agree. *)
let verify_state ~nshards sh =
  for a = 0 to nshards - 1 do
    for b = a + 1 to nshards - 1 do
      check Alcotest.int64
        (Printf.sprintf "pair stamp %d<->%d" a b)
        (Sh.Engine.heap_read_u64 (Sh.engine sh a) (pair_off b))
        (Sh.Engine.heap_read_u64 (Sh.engine sh b) (pair_off a))
    done
  done;
  let sum = ref 0L and seeded = ref 0 in
  for s = 0 to nshards - 1 do
    sum := Int64.add !sum (Sh.Engine.heap_read_u64 (Sh.engine sh s) balance_off);
    if Sh.Engine.durable_id (Sh.engine sh s) >= 1 then incr seeded
  done;
  check Alcotest.int64 "sum = seeds still standing"
    (Int64.mul initial_balance (Int64.of_int !seeded))
    !sum

(* ------------------------------------------------------------------ *)

let test_basic_commit () =
  let nshards = 3 in
  let sh = Sh.create ~nshards (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed_shards sh nshards;
         for k = 1 to 20 do
           let a = k mod nshards in
           let b = (k + 1) mod nshards in
           (match transfer sh ~thread:(k mod 3) ~a ~b ~stamp:k 5L with
           | Some (_, Sh.Ack_cross { gtid }) -> check Alcotest.int "dense gtids" k gtid
           | _ -> Alcotest.fail "transfer should commit with a cross ack");
           ignore (bump sh ~thread:(k mod 3) (k mod nshards))
         done;
         Sh.stop sh));
  verify_state ~nshards sh;
  check Alcotest.int "frontier covers all cross txs" 20 (Sh.global_frontier sh);
  let dv = Sh.durable_vector sh and ev = Sh.effective_vector sh in
  Array.iteri (fun s d -> check Alcotest.int "eff = durable when drained" d ev.(s)) dv;
  check Alcotest.int "cross txs counted" 20
    (Dudetm_sim.Stats.get (Sh.stats sh) "cross_txs")

let test_wait_durable_cross () =
  let nshards = 2 in
  let sh = Sh.create ~nshards (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         seed_shards sh nshards;
         (match transfer sh ~thread:0 ~a:0 ~b:1 ~stamp:1 7L with
         | Some (_, (Sh.Ack_cross { gtid } as ack)) ->
           Sh.wait_durable sh ack;
           Alcotest.(check bool)
             "frontier reached the acked gtid" true
             (Sh.global_frontier sh >= gtid)
         | _ -> Alcotest.fail "expected a cross ack");
         Sh.stop sh))

let test_single_shard_ack_and_abort () =
  let sh = Sh.create ~nshards:2 (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         (match bump sh ~thread:0 1 with
         | Some (_, (Sh.Ack_local { shard = 1; _ } as ack)) -> Sh.wait_durable sh ack
         | _ -> Alcotest.fail "single-shard tx should yield a local ack");
         (match
            Sh.atomically sh ~thread:0 ~shards:[ 0 ] (fun tx ->
                Sh.read tx ~shard:0 balance_off)
          with
         | Some (0L, Sh.Ack_read_only) -> ()
         | _ -> Alcotest.fail "read-only tx should yield a read-only ack");
         (* abort rolls back every open sub-transaction *)
         (match
            Sh.atomically sh ~thread:0 ~shards:[ 0; 1 ] (fun tx ->
                Sh.write tx ~shard:0 balance_off 99L;
                Sh.write tx ~shard:1 balance_off 99L;
                Sh.abort tx)
          with
         | None -> ()
         | Some _ -> Alcotest.fail "aborted tx should return None");
         Sh.stop sh));
  check Alcotest.int64 "abort rolled back shard 0" 0L
    (Sh.Engine.heap_read_u64 (Sh.engine sh 0) balance_off);
  check Alcotest.int64 "abort rolled back shard 1" 0L
    (Sh.Engine.heap_read_u64 (Sh.engine sh 1) balance_off);
  check Alcotest.int "no gtid drawn for aborts/single/readonly" 0 (Sh.global_frontier sh)

let test_undeclared_shard_rejected () =
  let sh = Sh.create ~nshards:2 (small_cfg ()) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         (try
            ignore
              (Sh.atomically sh ~thread:0 ~shards:[ 0 ] (fun tx ->
                   Sh.write tx ~shard:1 balance_off 1L));
            Alcotest.fail "undeclared shard should be rejected"
          with Invalid_argument _ -> ());
         Sh.stop sh))

(* Run a mixed workload and cut power at persist boundary [crash_at]
   (counted across all shard devices); [None] runs to a clean stop.
   Returns the instance, the boundary count and whether it crashed. *)
let run_until_crash ~nshards ~txs ~crash_at () =
  let cfg = small_cfg () in
  let sh = Sh.create ~nshards cfg in
  let sites = ref 0 in
  let hook () =
    incr sites;
    match crash_at with Some k when !sites = k -> raise Crashed | _ -> ()
  in
  let disarm () =
    for s = 0 to nshards - 1 do
      Nvm.set_persist_hook (Sh.nvm sh s) None
    done
  in
  let crashed = ref false in
  (try
     ignore
       (Sched.run (fun () ->
            Sh.start sh;
            seed_shards sh nshards;
            for s = 0 to nshards - 1 do
              Nvm.set_persist_hook (Sh.nvm sh s) (Some hook)
            done;
            for k = 1 to txs do
              let a = k mod nshards in
              let b = (k + 1) mod nshards in
              ignore (transfer sh ~thread:(k mod 3) ~a ~b ~stamp:k 5L);
              ignore (bump sh ~thread:(k mod 3) (k mod nshards))
            done;
            disarm ();
            Sh.stop sh))
   with Crashed -> crashed := true);
  disarm ();
  if !crashed then
    for s = 0 to nshards - 1 do
      Nvm.crash (Sh.nvm sh s)
    done;
  (sh, !sites, !crashed)

let test_crash_all_or_nothing () =
  let nshards = 3 in
  let _, total, crashed = run_until_crash ~nshards ~txs:12 ~crash_at:None () in
  check Alcotest.bool "clean run does not crash" false crashed;
  Alcotest.(check bool) "clean run has persist boundaries" true (total > 0);
  let rng = Rng.create 99 in
  for _ = 1 to 16 do
    let k = 1 + Rng.int rng total in
    let sh, _, crashed = run_until_crash ~nshards ~txs:12 ~crash_at:(Some k) () in
    if crashed then begin
      let sh2, _rec = Sh.attach ~nshards (Sh.config sh) (Array.init nshards (Sh.nvm sh)) in
      verify_state ~nshards sh2
    end
  done

(* A recovered system keeps working: attach, run more transfers, stop. *)
let test_recover_and_continue () =
  let nshards = 3 in
  let _, total, _ = run_until_crash ~nshards ~txs:12 ~crash_at:None () in
  let sh, _, crashed = run_until_crash ~nshards ~txs:12 ~crash_at:(Some (total / 2)) () in
  Alcotest.(check bool) "crashed mid-run" true crashed;
  let sh2, _ = Sh.attach ~nshards (Sh.config sh) (Array.init nshards (Sh.nvm sh)) in
  let before = Sh.global_frontier sh2 in
  ignore
    (Sched.run (fun () ->
         Sh.start sh2;
         for k = 1 to 6 do
           let a = k mod nshards in
           let b = (k + 1) mod nshards in
           ignore (transfer sh2 ~thread:(k mod 3) ~a ~b ~stamp:(1000 + k) 1L)
         done;
         Sh.stop sh2));
  verify_state ~nshards sh2;
  check Alcotest.int "fresh gtids continue after recovery" (before + 6)
    (Sh.global_frontier sh2)

(* A single-shard transaction arriving while a cross-shard transaction
   quiesces its shard waits (parked on the shard's wake condition) until
   the quiesce is released, then runs. *)
let test_single_waits_out_quiesce () =
  let sh = Sh.create ~nshards:2 (small_cfg ()) in
  let cross_end = ref 0 and single_start = ref (-1) in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         let single =
           Sched.spawn "single" (fun () ->
               Sched.advance 10;
               ignore
                 (Sh.atomically sh ~thread:1 ~shards:[ 0 ] (fun tx ->
                      single_start := Sched.now ();
                      Sh.write tx ~shard:0 local_off 1L)))
         in
         ignore
           (Sh.atomically sh ~thread:0 ~shards:[ 0; 1 ] (fun tx ->
                Sched.advance 1_000;
                Sh.write tx ~shard:0 balance_off 1L;
                Sh.write tx ~shard:1 balance_off 1L));
         cross_end := Sched.now ();
         Sched.join ~label:"single done" [ single ];
         Sh.stop sh));
  check Alcotest.bool "the single-shard body ran after the quiesce" true
    (!single_start >= !cross_end)

let suite =
  [
    Alcotest.test_case "basic cross-shard commit" `Quick test_basic_commit;
    Alcotest.test_case "cross ack wait_durable" `Quick test_wait_durable_cross;
    Alcotest.test_case "acks and aborts" `Quick test_single_shard_ack_and_abort;
    Alcotest.test_case "undeclared shard rejected" `Quick test_undeclared_shard_rejected;
    Alcotest.test_case "crash all-or-nothing" `Slow test_crash_all_or_nothing;
    Alcotest.test_case "recover and continue" `Slow test_recover_and_continue;
    Alcotest.test_case "single-shard tx waits out a cross quiesce" `Quick
      test_single_waits_out_quiesce;
  ]
