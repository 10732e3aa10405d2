(* Transactional-memory tests: lock table, TinySTM serializability and
   rollback, HTM conflicts/capacity/fallback, and exact golden contended
   runs of every versioned-lock TM. *)

module Lock_table = Dudetm_tm.Lock_table
module Tinystm = Dudetm_tm.Tinystm
module Tinystm_wb = Dudetm_tm.Tinystm_wb
module Htm = Dudetm_tm.Htm
module Tm_intf = Dudetm_tm.Tm_intf
module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module B = Dudetm_baselines

let check = Alcotest.check

(* ----------------------------- lock table ---------------------------- *)

let test_lock_table_acquire_release () =
  let t = Lock_table.create ~bits:4 () in
  let s = Lock_table.stripe_of_addr t 64 in
  (match Lock_table.read_word t s with
  | Lock_table.Version 0 -> ()
  | _ -> Alcotest.fail "fresh stripe should be Version 0");
  check Alcotest.int "acquire returns the previous version 0" 0
    (Lock_table.acquire t ~stripe:s ~uid:7);
  (match Lock_table.read_word t s with
  | Lock_table.Owned 7 -> ()
  | _ -> Alcotest.fail "stripe should be owned by 7");
  check Alcotest.int "second acquire fails" (-1) (Lock_table.acquire t ~stripe:s ~uid:8);
  Lock_table.release_to t ~stripe:s ~version:42;
  match Lock_table.read_word t s with
  | Lock_table.Version 42 -> ()
  | _ -> Alcotest.fail "release installs the version"

let test_lock_table_stripe_mapping () =
  let t = Lock_table.create ~bits:8 () in
  check Alcotest.int "same word, same stripe" (Lock_table.stripe_of_addr t 128)
    (Lock_table.stripe_of_addr t 128);
  let distinct =
    List.sort_uniq compare (List.init 200 (fun i -> Lock_table.stripe_of_addr t (8 * i)))
  in
  check Alcotest.bool "addresses spread over stripes" true (List.length distinct > 100)

(* The chunked table against a flat reference array, the layout it
   replaced: the same verdict and word at every stripe, through read_word,
   version and owner, under any sequence of acquire, release_to and reads,
   for tables below, at and above one chunk.  A stripe drawn as [-1] is
   the last stripe of the table. *)
let prop_lock_table_matches_flat =
  QCheck2.Test.make ~name:"lock table: chunked agrees with a flat array" ~count:200
    QCheck2.Gen.(
      tup2 (oneofl [ 1; 4; 12; 13; 20 ])
        (list_size (int_range 1 300)
           (tup3 (int_range 0 2)
              (frequency [ (6, int_bound ((1 lsl 20) - 1)); (1, return (-1)) ])
              (int_bound 1_000_000))))
    (fun (bits, ops) ->
      let t = Lock_table.create ~bits () in
      let n = 1 lsl bits in
      let flat = Array.make n 0 in
      let agree s =
        let w = flat.(s) in
        let free = w land 1 = 0 in
        Lock_table.read_word t s
        = (if free then Lock_table.Version (w lsr 1) else Lock_table.Owned (w lsr 1))
        && Lock_table.version t s = (if free then w lsr 1 else -1)
        && Lock_table.owner t s = if free then -1 else w lsr 1
      in
      let touched = ref [ 0; n - 1 ] in
      List.for_all
        (fun (op, s, v) ->
          let s = if s < 0 then n - 1 else s land (n - 1) in
          touched := s :: !touched;
          match op with
          | 0 ->
            let expected =
              if flat.(s) land 1 = 1 then -1
              else begin
                let prev = flat.(s) lsr 1 in
                flat.(s) <- (v lsl 1) lor 1;
                prev
              end
            in
            Lock_table.acquire t ~stripe:s ~uid:v = expected && agree s
          | 1 ->
            Lock_table.release_to t ~stripe:s ~version:v;
            flat.(s) <- v lsl 1;
            agree s
          | _ -> agree s)
        ops
      && List.for_all agree !touched)

(* A fresh table costs its chunk slots only; the first write into a chunk
   materialises exactly that chunk, and neither a second write into it nor
   a read of an absent chunk allocates. *)
let test_lock_table_allocates_on_write () =
  let t = Lock_table.create () in
  let words () = Obj.reachable_words (Obj.repr t) in
  let fresh = words () in
  check Alcotest.bool
    (Printf.sprintf "fresh table holds chunk slots only (%d words)" fresh)
    true
    (fresh <= ((1 lsl 20) / 4096) + 16);
  check Alcotest.bool "untouched stripe reads free at version 0" true
    (Lock_table.read_word t ((1 lsl 20) - 1) = Lock_table.Version 0);
  check Alcotest.int "reads materialise nothing" fresh (words ());
  Lock_table.release_to t ~stripe:12345 ~version:3;
  check Alcotest.int "one write materialises one chunk" (fresh + 4096 + 1) (words ());
  check Alcotest.int "same-chunk acquire succeeds" 0
    (Lock_table.acquire t ~stripe:(12345 lxor 1) ~uid:9);
  check Alcotest.int "a second write into the chunk allocates nothing" (fresh + 4096 + 1)
    (words ());
  check Alcotest.bool "the written stripe keeps its version" true
    (Lock_table.read_word t 12345 = Lock_table.Version 3)

(* --------------------------- generic TM tests ------------------------ *)

let mem_tm (type t) (module Tm : Tm_intf.S with type t = t) () =
  let mem = Bytes.make 8192 '\000' in
  (Tm.create (Tm_intf.mem_store mem), mem)

module type TM = Tm_intf.S

let counter_increments (module Tm : TM) name =
  (* N threads increment a shared counter transactionally; the result must
     equal the number of committed increments (atomicity + isolation). *)
  let tm, mem = mem_tm (module Tm) () in
  let per = 200 in
  let threads = 4 in
  ignore
    (Sched.run (fun () ->
         for t = 0 to threads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "inc-%d" t) (fun () ->
                  for _ = 1 to per do
                    match
                      Tm.run tm (fun tx ->
                          let v = Tm.read tx 0 in
                          Tm.write tx 0 (Int64.add v 1L))
                    with
                    | Some _ -> ()
                    | None -> Alcotest.fail "unexpected user abort"
                  done))
         done));
  check Alcotest.int64 (name ^ ": counter equals total increments")
    (Int64.of_int (per * threads))
    (Bytes.get_int64_le mem 0);
  check Alcotest.int (name ^ ": contiguous tids") (per * threads) (Tm.last_tid tm)

let bank_transfers (module Tm : TM) name =
  (* Classic invariant: total balance conserved under concurrent random
     transfers, including user aborts on insufficient funds. *)
  let tm, mem = mem_tm (module Tm) () in
  let accounts = 32 in
  for i = 0 to accounts - 1 do
    Bytes.set_int64_le mem (8 * i) 100L
  done;
  ignore
    (Sched.run (fun () ->
         for t = 0 to 3 do
           ignore
             (Sched.spawn (Printf.sprintf "bank-%d" t) (fun () ->
                  let rng = Rng.create (50 + t) in
                  for _ = 1 to 150 do
                    let src = 8 * Rng.int rng accounts in
                    let dst = 8 * Rng.int rng accounts in
                    let amount = Int64.of_int (1 + Rng.int rng 50) in
                    ignore
                      (Tm.run tm (fun tx ->
                           let s = Tm.read tx src in
                           if s < amount then Tm.user_abort tx
                           else begin
                             Tm.write tx src (Int64.sub s amount);
                             let d = Tm.read tx dst in
                             Tm.write tx dst (Int64.add d amount)
                           end))
                  done))
         done));
  let total = ref 0L in
  for i = 0 to accounts - 1 do
    total := Int64.add !total (Bytes.get_int64_le mem (8 * i))
  done;
  check Alcotest.int64 (name ^ ": total balance conserved") (Int64.of_int (100 * accounts)) !total

let rollback_on_user_abort (module Tm : TM) name =
  let tm, mem = mem_tm (module Tm) () in
  Bytes.set_int64_le mem 0 11L;
  let r =
    Tm.run tm (fun tx ->
        Tm.write tx 0 99L;
        Tm.write tx 8 100L;
        Tm.user_abort tx)
  in
  check Alcotest.bool (name ^ ": abort returns None") true (r = None);
  check Alcotest.int64 (name ^ ": first write rolled back") 11L (Bytes.get_int64_le mem 0);
  check Alcotest.int64 (name ^ ": second write rolled back") 0L (Bytes.get_int64_le mem 8)

let read_only_tid_zero (module Tm : TM) name =
  let tm, _ = mem_tm (module Tm) () in
  (match Tm.run tm (fun tx -> Tm.read tx 0) with
  | Some (_, tid) -> check Alcotest.int (name ^ ": read-only tid is 0") 0 tid
  | None -> Alcotest.fail "read-only tx aborted");
  check Alcotest.int (name ^ ": clock unchanged") 0 (Tm.last_tid tm)

let on_retry_called (module Tm : TM) name =
  (* Force a conflict and observe the retry hook. *)
  let tm, _ = mem_tm (module Tm) () in
  let retries = ref 0 in
  let rounds = ref 0 in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 1 do
           ignore
             (Sched.spawn (Printf.sprintf "c-%d" t) (fun () ->
                  for _ = 1 to 100 do
                    ignore
                      (Tm.run ~on_retry:(fun () -> incr retries) tm (fun tx ->
                           incr rounds;
                           let v = Tm.read tx 0 in
                           Sched.advance 40;
                           Tm.write tx 0 (Int64.add v 1L)))
                  done))
         done));
  check Alcotest.bool (name ^ ": conflicts happened") true (!retries > 0);
  check Alcotest.int (name ^ ": every retry re-ran the body") !rounds (200 + !retries)

let tm_tests name (module Tm : TM) =
  [
    Alcotest.test_case (name ^ ": concurrent counter") `Quick (fun () ->
        counter_increments (module Tm) name);
    Alcotest.test_case (name ^ ": bank transfers conserve balance") `Quick (fun () ->
        bank_transfers (module Tm) name);
    Alcotest.test_case (name ^ ": user abort rolls back") `Quick (fun () ->
        rollback_on_user_abort (module Tm) name);
    Alcotest.test_case (name ^ ": read-only commits without tid") `Quick (fun () ->
        read_only_tid_zero (module Tm) name);
    Alcotest.test_case (name ^ ": retry hook") `Quick (fun () -> on_retry_called (module Tm) name);
  ]

(* --------------------------- TinySTM specifics ----------------------- *)

let test_stm_write_through_visible_to_self () =
  let tm, _ = mem_tm (module Tinystm) () in
  match
    Tinystm.run tm (fun tx ->
        Tinystm.write tx 0 5L;
        Tinystm.read tx 0)
  with
  | Some (v, _) -> check Alcotest.int64 "read own write" 5L v
  | None -> Alcotest.fail "aborted"

let test_stm_snapshot_isolation () =
  (* A reader that started before a writer commits must either see the old
     consistent snapshot or abort-and-retry — never a mix. *)
  let tm, mem = mem_tm (module Tinystm) () in
  Bytes.set_int64_le mem 0 1L;
  Bytes.set_int64_le mem 512 1L;
  let observed = ref [] in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "reader" (fun () ->
                for _ = 1 to 50 do
                  match
                    Tinystm.run tm (fun tx ->
                        let a = Tinystm.read tx 0 in
                        Sched.advance 100;
                        let b = Tinystm.read tx 512 in
                        (a, b))
                  with
                  | Some ((a, b), _) -> observed := (a, b) :: !observed
                  | None -> ()
                done));
         ignore
           (Sched.spawn "writer" (fun () ->
                for i = 2 to 40 do
                  ignore
                    (Tinystm.run tm (fun tx ->
                         Tinystm.write tx 0 (Int64.of_int i);
                         Sched.advance 60;
                         Tinystm.write tx 512 (Int64.of_int i)));
                  Sched.advance 120
                done))));
  List.iter
    (fun (a, b) ->
      if a <> b then
        Alcotest.failf "torn snapshot observed: %Ld vs %Ld" a b)
    !observed

let test_stm_abort_stats () =
  let tm, _ = mem_tm (module Tinystm) () in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 3 do
           ignore
             (Sched.spawn (string_of_int t) (fun () ->
                  for _ = 1 to 50 do
                    ignore
                      (Tinystm.run tm (fun tx ->
                           let v = Tinystm.read tx 0 in
                           Sched.advance 30;
                           Tinystm.write tx 0 (Int64.add v 1L)))
                  done))
         done));
  let s = Tinystm.stats tm in
  check Alcotest.int "commits counted" 200 (Stats.get s "commits");
  check Alcotest.bool "aborts counted" true (Stats.get s "aborts" > 0);
  (* Every conflict rollback takes a randomized backoff pause; both the
     pause count and the simulated cycles spent must be visible. *)
  check Alcotest.int "backoffs = aborts" (Stats.get s "aborts") (Stats.get s "backoffs");
  check Alcotest.bool "backoff cycles accumulated" true
    (Stats.get s "backoff_cycles" >= 64 * Stats.get s "backoffs")

(* ----------------------------- HTM specifics ------------------------- *)

let test_wb_buffers_until_commit () =
  let mem = Bytes.make 1024 '\000' in
  let tm = Tinystm_wb.create (Tm_intf.mem_store mem) in
  let tx = Tinystm_wb.begin_tx tm in
  Tinystm_wb.write tx 0 7L;
  check Alcotest.int64 "store untouched before commit" 0L (Bytes.get_int64_le mem 0);
  check Alcotest.int64 "own write visible via redirection" 7L (Tinystm_wb.read tx 0);
  ignore (Tinystm_wb.commit tx);
  check Alcotest.int64 "applied at commit" 7L (Bytes.get_int64_le mem 0)

let test_htm_write_buffering () =
  (* HTM writes must be invisible until commit. *)
  let mem = Bytes.make 1024 '\000' in
  let tm = Htm.create (Tm_intf.mem_store mem) in
  let tx = Htm.begin_tx tm in
  Htm.write tx 0 7L;
  check Alcotest.int64 "store untouched before commit" 0L (Bytes.get_int64_le mem 0);
  check Alcotest.int64 "but visible to self" 7L (Htm.read tx 0);
  ignore (Htm.commit tx);
  check Alcotest.int64 "applied at commit" 7L (Bytes.get_int64_le mem 0)

let test_htm_capacity_fallback () =
  let mem = Bytes.make (1 lsl 20) '\000' in
  let tm = Htm.create_htm ~capacity_lines:8 (Tm_intf.mem_store mem) in
  ignore
    (Sched.run (fun () ->
         match
           Htm.run tm (fun tx ->
               (* Touch 32 distinct lines: beyond the 8-line capacity. *)
               for i = 0 to 31 do
                 Htm.write tx (i * 64) 1L
               done)
         with
         | Some _ -> ()
         | None -> Alcotest.fail "capacity fallback should still commit"));
  check Alcotest.bool "capacity abort recorded" true
    (Stats.get (Htm.stats tm) "capacity_aborts" > 0);
  check Alcotest.bool "fallback used" true (Stats.get (Htm.stats tm) "fallbacks" > 0);
  check Alcotest.int64 "fallback writes applied" 1L (Bytes.get_int64_le mem 0)

let test_htm_fallback_preserves_commit_order () =
  (* Capacity aborts past the retry budget push big transactions onto the
     global-lock fallback while small ones keep committing in hardware; the
     two paths must still agree on a single serial commit-ID order.  Every
     transaction bumps a shared counter, so its post-increment value is its
     serialization rank — which must match its commit ID exactly. *)
  let mem = Bytes.make (1 lsl 20) '\000' in
  let tm =
    Htm.create_htm ~capacity_lines:8 ~max_retries:2 (Tm_intf.mem_store mem)
  in
  let commits = ref [] in
  ignore
    (Sched.run (fun () ->
         for t = 0 to 2 do
           ignore
             (Sched.spawn (Printf.sprintf "mix-%d" t) (fun () ->
                  for i = 1 to 30 do
                    let big = i mod 3 = 0 in
                    match
                      Htm.run tm (fun tx ->
                          let s = Int64.to_int (Htm.read tx 0) + 1 in
                          Htm.write tx 0 (Int64.of_int s);
                          (* Touch 31 extra lines: past the 8-line write
                             capacity, so retries can't help. *)
                          if big then
                            for j = 1 to 31 do
                              Htm.write tx ((t * 16384) + (j * 64)) (Int64.of_int s)
                            done;
                          s)
                    with
                    | Some (s, tid) -> commits := (tid, s) :: !commits
                    | None -> Alcotest.fail "unexpected user abort"
                  done))
         done));
  let sorted = List.sort compare !commits in
  check Alcotest.int "every transaction committed" 90 (List.length sorted);
  List.iteri
    (fun idx (tid, s) ->
      if tid <> idx + 1 || s <> idx + 1 then
        Alcotest.failf "commit order diverges: tid %d serialized as rank %d" tid s)
    sorted;
  check Alcotest.int64 "counter equals total commits" 90L (Bytes.get_int64_le mem 0);
  check Alcotest.bool "capacity aborts past the retry budget" true
    (Stats.get (Htm.stats tm) "capacity_aborts" > 0);
  let fallbacks = Stats.get (Htm.stats tm) "fallbacks" in
  check Alcotest.bool "some commits took the lock fallback" true (fallbacks > 0);
  check Alcotest.bool "some commits stayed in hardware" true (fallbacks < 90)

let test_htm_conflict_dooms_reader () =
  let mem = Bytes.make 1024 '\000' in
  let tm = Htm.create (Tm_intf.mem_store mem) in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "reader" (fun () ->
                ignore
                  (Htm.run tm (fun tx ->
                       let a = Htm.read tx 0 in
                       (* Yield so the writer can commit in between. *)
                       Sched.advance 500;
                       let b = Htm.read tx 0 in
                       check Alcotest.int64 "doomed reader never sees a mix" a b))));
         ignore
           (Sched.spawn "writer" (fun () ->
                Sched.advance 100;
                ignore (Htm.run tm (fun tx -> Htm.write tx 0 5L))))));
  check Alcotest.bool "reader aborted at least once" true
    (Stats.get (Htm.stats tm) "conflict_aborts" > 0)

let test_htm_tid_conflicts_ablation () =
  (* Stock hardware: commits of disjoint transactions still doom each
     other through the tx-ID counter. *)
  let run_with tid_conflicts =
    let mem = Bytes.make 65536 '\000' in
    let tm = Htm.create_htm ~tid_conflicts (Tm_intf.mem_store mem) in
    ignore
      (Sched.run (fun () ->
           for t = 0 to 3 do
             ignore
               (Sched.spawn (string_of_int t) (fun () ->
                    for i = 0 to 50 do
                      (* Every thread writes a distinct address: no real
                         data conflicts. *)
                      ignore
                        (Htm.run tm (fun tx ->
                             Htm.write tx ((t * 8192) + (i * 64)) 1L))
                    done))
           done));
    Stats.get (Htm.stats tm) "aborts"
  in
  check Alcotest.int "modified hardware: disjoint txs never abort" 0 (run_with false);
  check Alcotest.bool "stock hardware: counter conflicts abort" true (run_with true > 0)

(* ------------------ golden contended runs (exact) --------------------- *)

(* Fixed-seed contended runs whose counters, final clock and simulated end
   cycle are pinned exactly: the versioned-lock protocol (validation,
   commit-time locking, backoff draws) may be restructured, but no
   scheduling point or RNG draw may move. *)

let golden_keys =
  [ "commits"; "aborts"; "backoffs"; "backoff_cycles"; "snapshot_retries"; "snapshot_extends" ]

let golden_row stats ~clock ~cycles =
  List.map (fun k -> (k, Stats.get stats k)) golden_keys
  @ [ ("clock", clock); ("end_cycle", cycles) ]

(* Four writers each bump a shared counter and one of eight slot pairs
   (both halves always written equal); [readers] snapshot readers check
   and sum every pair, the odd ones pinned to a watermark that trails the
   clock. *)
let contended_run (module Tm : TM) ~readers =
  let mem = Bytes.make 8192 '\000' in
  let tm = Tm.create ~seed:7 (Tm_intf.mem_store mem) in
  let watermark = ref 0 and raised = Sched.cond () in
  let cycles =
    Sched.run (fun () ->
        ignore
          (Sched.spawn ~daemon:true "watermark" (fun () ->
               while true do
                 Sched.advance 700;
                 watermark := Tm.last_tid tm;
                 Sched.signal raised
               done));
        for w = 0 to 3 do
          ignore
            (Sched.spawn (Printf.sprintf "w%d" w) (fun () ->
                 let rng = Rng.create (100 + w) in
                 for _ = 1 to 60 do
                   let p = 16 * Rng.int rng 8 in
                   ignore
                     (Tm.run tm (fun tx ->
                          let c = Tm.read tx 0 in
                          let v = Tm.read tx (64 + p) in
                          Sched.advance 50;
                          Tm.write tx (64 + p) (Int64.add v 1L);
                          Tm.write tx (72 + p) (Int64.add v 1L);
                          Tm.write tx 0 (Int64.add c 1L)))
                 done))
        done;
        for r = 0 to readers - 1 do
          ignore
            (Sched.spawn (Printf.sprintf "r%d" r) (fun () ->
                 let pin =
                   if r mod 2 = 1 then
                     Some { Tm_intf.watermark = (fun () -> !watermark); on = [ raised ] }
                   else None
                 in
                 for _ = 1 to 40 do
                   match
                     Tm.run_ro ?pin tm (fun ro ->
                         let sum = ref 0L in
                         for i = 0 to 7 do
                           let a = Tm.ro_read ro (64 + (16 * i)) in
                           Sched.advance 30;
                           let b = Tm.ro_read ro (72 + (16 * i)) in
                           if a <> b then Alcotest.failf "torn pair %d: %Ld vs %Ld" i a b;
                           sum := Int64.add !sum a
                         done;
                         !sum)
                   with
                   | Some _ -> ()
                   | None -> Alcotest.fail "snapshot aborted"
                 done))
        done)
  in
  check Alcotest.int64 "every write transaction committed once" 240L (Bytes.get_int64_le mem 0);
  golden_row (Tm.stats tm) ~clock:(Tm.last_tid tm) ~cycles

let mnemosyne_run () =
  let cfg =
    { B.Mnemosyne.default_config with B.Mnemosyne.heap_size = 1 lsl 20; log_size = 1 lsl 10 }
  in
  let t = B.Mnemosyne.create cfg in
  let ptm = B.Mnemosyne.ptm_of t in
  let cycles =
    Sched.run (fun () ->
        for w = 0 to 3 do
          ignore
            (Sched.spawn (Printf.sprintf "w%d" w) (fun () ->
                 let rng = Rng.create (200 + w) in
                 for _ = 1 to 50 do
                   let p = 4096 + (16 * Rng.int rng 8) in
                   ignore
                     (ptm.B.Ptm_intf.atomically ~thread:w (fun tx ->
                          let c = tx.B.Ptm_intf.read 4096 in
                          let v = tx.B.Ptm_intf.read (64 + p) in
                          tx.B.Ptm_intf.write (64 + p) (Int64.add v 1L);
                          tx.B.Ptm_intf.write 4096 (Int64.add c 1L)))
                 done))
        done)
  in
  let counters = ptm.B.Ptm_intf.counters () in
  let get k = Option.value ~default:0 (List.assoc_opt k counters) in
  List.map (fun k -> (k, get k)) [ "commits"; "aborts"; "reads"; "writes"; "log_truncations" ]
  @ [ ("clock", ptm.B.Ptm_intf.last_tid ());
      ("durable", ptm.B.Ptm_intf.durable_id ());
      ("end_cycle", cycles) ]

let golden_runs =
  [
    ( "tinystm",
      (fun () -> contended_run (module Tinystm) ~readers:0),
      [ ("commits", 240); ("aborts", 345); ("backoffs", 345); ("backoff_cycles", 365781);
        ("snapshot_retries", 0); ("snapshot_extends", 0); ("clock", 240);
        ("end_cycle", 325094) ] );
    ( "tinystm-wb",
      (fun () -> contended_run (module Tinystm_wb) ~readers:0),
      [ ("commits", 240); ("aborts", 260); ("backoffs", 260); ("backoff_cycles", 275190);
        ("snapshot_retries", 0); ("snapshot_extends", 0); ("clock", 240);
        ("end_cycle", 321169) ] );
    ( "snapshots over tinystm",
      (fun () -> contended_run (module Tinystm) ~readers:4),
      [ ("commits", 240); ("aborts", 436); ("backoffs", 504); ("backoff_cycles", 419142);
        ("snapshot_retries", 68); ("snapshot_extends", 278); ("clock", 240);
        ("end_cycle", 332328) ] );
    ( "snapshots over tinystm-wb",
      (fun () -> contended_run (module Tinystm_wb) ~readers:4),
      [ ("commits", 240); ("aborts", 304); ("backoffs", 313); ("backoff_cycles", 341525);
        ("snapshot_retries", 9); ("snapshot_extends", 98); ("clock", 240);
        ("end_cycle", 321642) ] );
    ( "mnemosyne",
      mnemosyne_run,
      [ ("commits", 200); ("aborts", 787); ("reads", 1456); ("writes", 934);
        ("log_truncations", 8); ("clock", 200); ("durable", 200); ("end_cycle", 757593) ] );
  ]

let golden_tests =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case ("golden contended run: " ^ name) `Quick (fun () ->
          check Alcotest.(list (pair string int)) name expected (run ())))
    golden_runs

let suite =
  [
    Alcotest.test_case "lock table acquire/release" `Quick test_lock_table_acquire_release;
    Alcotest.test_case "lock table stripe mapping" `Quick test_lock_table_stripe_mapping;
    QCheck_alcotest.to_alcotest prop_lock_table_matches_flat;
    Alcotest.test_case "lock table allocates chunks on first write" `Quick
      test_lock_table_allocates_on_write;
  ]
  @ tm_tests "tinystm" (module Tinystm)
  @ tm_tests "tinystm-wb" (module Tinystm_wb)
  @ tm_tests "htm" (module Htm)
  @ [
      Alcotest.test_case "stm: write-through visible to self" `Quick
        test_stm_write_through_visible_to_self;
      Alcotest.test_case "stm: snapshot isolation" `Quick test_stm_snapshot_isolation;
      Alcotest.test_case "stm: abort statistics" `Quick test_stm_abort_stats;
      Alcotest.test_case "tinystm-wb: buffers until commit" `Quick
        test_wb_buffers_until_commit;
      Alcotest.test_case "htm: write buffering" `Quick test_htm_write_buffering;
      Alcotest.test_case "htm: capacity abort falls back to lock" `Quick
        test_htm_capacity_fallback;
      Alcotest.test_case "htm: fallback preserves commit-ID order" `Quick
        test_htm_fallback_preserves_commit_order;
      Alcotest.test_case "htm: conflict dooms reader" `Quick test_htm_conflict_dooms_reader;
      Alcotest.test_case "htm: tx-ID counter conflict ablation" `Quick
        test_htm_tid_conflicts_ablation;
    ]
  @ golden_tests
