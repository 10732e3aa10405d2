(* Differential oracle: the same seeded KV workload driven through DudeTM
   and through the volatile TinySTM upper bound must produce identical
   observable results — durability must never change what transactions
   compute.  And after a crash, the recovered state must be exactly the
   durable prefix of the committed history, judged by the crash
   campaigns' history oracle.

   The operation generator is deliberately reusable: [gen_ops] produces a
   seeded random op list for one thread over its own key range, and
   [observe] runs it on any Ptm system, returning the full observation
   stream.  Threads work disjoint key ranges, so each thread's observations
   are schedule-independent — which is what makes a cross-system diff
   meaningful even though DudeTM's daemon threads shift every scheduling
   decision point relative to the volatile run. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module W = Dudetm_workloads
module Ptm = B.Ptm_intf
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)
module History = Dudetm_check.History

let check = Alcotest.check

(* ----------------------------- generator ------------------------------ *)

type op =
  | Lookup of int64
  | Lookup_ro of int64  (* snapshot fast path; durable-only for odd keys *)
  | Insert of int64 * int64
  | Update of int64 * int64

let gen_ops ~seed ~n ~key_lo ~key_hi =
  let rng = Rng.create seed in
  let key () = Int64.of_int (key_lo + Rng.int rng (key_hi - key_lo + 1)) in
  List.init n (fun _ ->
      match Rng.int rng 10 with
      | 0 | 1 -> Lookup (key ())
      | 2 | 3 -> Lookup_ro (key ())
      | 4 | 5 | 6 -> Insert (key (), Rng.next_int64 rng)
      | _ -> Update (key (), Rng.next_int64 rng))

(* Run one op transactionally and encode its observable outcome as an
   int64 (lookup result, or found/absent; insert/update success bit). *)
let observe (ptm : Ptm.t) kv ~thread op =
  let run tx_f =
    match ptm.Ptm.atomically ~thread tx_f with
    | Some (r, _tid) -> r
    | None -> Alcotest.fail "transaction user-aborted unexpectedly"
  in
  let run_ro ~durable tx_f =
    match ptm.Ptm.atomically_ro ~durable ~thread tx_f with
    | Some (r, _epoch) -> r
    | None -> Alcotest.fail "read-only transaction user-aborted unexpectedly"
  in
  match op with
  | Lookup k -> (
    match run (fun tx -> W.Kv.lookup_tx kv tx ~key:k) with
    | Some v -> v
    | None -> -1L)
  | Lookup_ro k -> (
    (* Threads write disjoint ranges, so even a durable-pinned snapshot of
       the thread's own key is schedule-independent: the pin only delays
       the read until the thread's latest write is durable. *)
    let durable = Int64.to_int k land 1 = 1 in
    match run_ro ~durable (fun tx -> W.Kv.lookup_tx kv tx ~key:k) with
    | Some v -> v
    | None -> -1L)
  | Insert (k, v) -> if run (fun tx -> W.Kv.insert_tx kv tx ~key:k ~value:v) then 1L else 0L
  | Update (k, v) -> if run (fun tx -> W.Kv.update_tx kv tx ~key:k ~value:v) then 1L else 0L

(* Run the full workload on one system: [nthreads] workers, disjoint key
   ranges, [ops_per_thread] seeded ops each, under the given schedule.
   Returns per-thread observation streams and the final table contents as
   seen through a transactional scan. *)
let run_system ?strategy ~nthreads ~ops_per_thread ~op_seed (ptm : Ptm.t) =
  let kv = ref None in
  let obs = Array.make nthreads [] in
  ignore
    (Sched.run ?strategy (fun () ->
         ptm.Ptm.start ();
         let t = W.Kv.setup ptm W.Kv.Hash ~capacity:4096 in
         kv := Some t;
         Sched.join ~label:"differential workers"
           (List.init nthreads (fun th ->
                Sched.spawn
                  (Printf.sprintf "w%d" th)
                  (fun () ->
                    let ops =
                      gen_ops ~seed:(op_seed + th) ~n:ops_per_thread ~key_lo:(1 + (th * 1000))
                        ~key_hi:((th * 1000) + 200)
                    in
                    obs.(th) <-
                      List.rev
                        (List.fold_left
                           (fun acc op ->
                             Sched.advance 30;
                             observe ptm t ~thread:th op :: acc)
                           [] ops))));
         ptm.Ptm.drain ();
         ptm.Ptm.stop ()));
  let kv = Option.get !kv in
  let final =
    List.concat
      (List.init nthreads (fun th ->
           List.filter_map
             (fun k ->
               let key = Int64.of_int k in
               Option.map (fun v -> (key, v)) (W.Kv.peek_lookup kv ~key))
             (List.init 201 (fun i -> 1 + (th * 1000) + i))))
  in
  (Array.to_list obs, final)

(* ------------------- DudeTM vs volatile, same seed -------------------- *)

let dude_cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 21;
    nthreads = 3;
    vlog_capacity = 4096;
    plog_size = 1 lsl 16;
  }

let systems () =
  [
    ("dudetm", fst (B.Dude_ptm.Stm.ptm dude_cfg));
    ("dudetm-sync", fst (B.Dude_ptm.Stm.ptm { dude_cfg with Config.mode = Config.Sync }));
    ("volatile", B.Volatile_stm.ptm ~heap_size:(1 lsl 21) ~nthreads:3 ());
  ]

let test_identical_observations () =
  List.iter
    (fun (op_seed, sched_seed) ->
      let strategy = Sched.random_priority ~seed:sched_seed in
      let results =
        List.map
          (fun (name, ptm) ->
            (name, run_system ~strategy ~nthreads:3 ~ops_per_thread:120 ~op_seed ptm))
          (systems ())
      in
      match results with
      | (_, (ref_obs, ref_final)) :: rest ->
        List.iter
          (fun (name, (obs, final)) ->
            List.iteri
              (fun th (got, want) ->
                check
                  (Alcotest.list Alcotest.int64)
                  (Printf.sprintf "seed (%d,%d) thread %d observations on %s" op_seed
                     sched_seed th name)
                  want got)
              (List.combine obs ref_obs);
            check
              (Alcotest.list (Alcotest.pair Alcotest.int64 Alcotest.int64))
              (Printf.sprintf "seed (%d,%d) final table on %s" op_seed sched_seed name)
              ref_final final)
          rest
      | [] -> assert false)
    [ (500, 1); (501, 2); (502, 3) ]

(* ------------------ crash recovery: durable prefix -------------------- *)

(* Root-area address where the table descriptor is persisted so the
   recovered instance can re-open it (the allocator starts at root_size). *)
let desc_addr = 16

let test_crash_recovery_prefix () =
  List.iter
    (fun (seed, crash_cycles, evict) ->
      let ptm, d = B.Dude_ptm.Stm.ptm dude_cfg in
      (* Every committed write, all threads: a history over the tid order
         with one location per key. *)
      let h = History.create () and tids = ref [] in
      ignore
        (Sched.run (fun () ->
             ptm.Ptm.start ();
             let kv = W.Kv.setup ~desc:desc_addr ptm W.Kv.Hash ~capacity:1024 in
             (* Let setup become durable before the workload so the
                crash can never land inside table construction. *)
             Sched.wait_until ~label:"setup durable" (fun () ->
                 ptm.Ptm.durable_id () >= ptm.Ptm.last_tid ());
             for th = 0 to dude_cfg.Config.nthreads - 1 do
               ignore
                 (Sched.spawn
                    (Printf.sprintf "w%d" th)
                    (fun () ->
                      let rng = Rng.create (seed + th) in
                      while true do
                        let key = Int64.of_int (1 + (th * 500) + Rng.int rng 100) in
                        let value = Rng.next_int64 rng in
                        (match
                           ptm.Ptm.atomically ~thread:th (fun tx ->
                               if Rng.bool rng then W.Kv.insert_tx kv tx ~key ~value
                               else W.Kv.update_tx kv tx ~key ~value)
                         with
                        | Some (true, tid) ->
                          tids := tid :: !tids;
                          History.attempt h ~worker:th ~ack:(History.At (0, tid))
                            ~pos:(fun _ -> tid)
                            [ ((0, Int64.to_int key), value) ];
                          History.commit h ~worker:th ()
                        | Some (false, _) | None -> ());
                        Sched.advance 40
                      done))
             done;
             Sched.advance crash_cycles;
             Sched.halt ()));
      Nvm.crash ~evict_fraction:evict ~rng:(Rng.create seed) (D.nvm d);
      let ptm2, _, report = B.Dude_ptm.Stm.attach_ptm dude_cfg (D.nvm d) in
      let durable = report.Dudetm_core.Dudetm.durable in
      check Alcotest.bool "some transactions were durable" true (durable > 0);
      check Alcotest.bool "some commits were still in flight" true
        (List.exists (fun tid -> tid > durable) !tids);
      (* The durable prefix is acknowledged: the image must be the replay
         of a cut holding all of it and nothing past it. *)
      History.observe h 0 durable;
      let kv2 = W.Kv.attach ~desc:desc_addr ptm2 W.Kv.Hash in
      let read (_, key) =
        Option.value (W.Kv.peek_lookup kv2 ~key:(Int64.of_int key)) ~default:0L
      in
      match History.check h ~read with
      | _, Some reason -> Alcotest.failf "seed %d (durable=%d): %s" seed durable reason
      | cut, None ->
        check Alcotest.bool
          (Printf.sprintf "seed %d: nothing past the durable prefix" seed)
          true
          (History.position cut 0 <= durable))
    [ (700, 400_000, 0.4); (701, 650_000, 0.7); (702, 900_000, 0.0) ]

let suite =
  [
    Alcotest.test_case "identical observations across systems" `Slow
      test_identical_observations;
    Alcotest.test_case "recovered state is the durable prefix" `Slow
      test_crash_recovery_prefix;
  ]
