(* Bounded adaptive group commit: batch-partition combine/replay
   equivalence, per-batch durable-watermark advance, deadline-triggered
   batches under bursty arrivals, pipelined combine/flush overlap in the
   trace, and the batch-boundary crash campaign (clean pass + seeded
   Skip_batch_seal mutant caught). *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Log_entry = Dudetm_log.Log_entry
module Combine = Dudetm_log.Combine
module Trace = Dudetm_trace.Trace
module Check = Dudetm_check.Check
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

(* ----------------- batch-partition combine equivalence ---------------- *)

(* Replay a combined entry stream onto a tiny model heap.  Allocation
   events and end marks feed different recovery structures (the allocator
   journal and the durable watermark), so each class must survive in
   order, but sealing is free to interleave the two classes differently
   than the raw stream — collect them separately. *)
let replay_model entries =
  let heap = Array.make 16 0L in
  let allocs = ref [] and ends = ref [] in
  List.iter
    (fun e ->
      match e with
      | Log_entry.Write { addr; value } -> heap.(addr / 8) <- value
      | Log_entry.Tx_end _ -> ends := e :: !ends
      | _ -> allocs := e :: !allocs)
    entries;
  (heap, List.rev !allocs, List.rev !ends)

(* Random groups: writes over a small address set interleaved with
   allocation events and end marks, then a random partition into batches. *)
let gen_group_and_cuts =
  QCheck2.Gen.(
    let entry =
      frequency
        [
          ( 6,
            map2
              (fun a v -> Log_entry.Write { addr = 8 * a; value = Int64.of_int v })
              (int_range 0 15) (int_range 0 1000) );
          (1, map (fun o -> Log_entry.Alloc { off = 256 + (8 * o); len = 8 }) (int_range 0 30));
          (1, map (fun o -> Log_entry.Free { off = 256 + (8 * o); len = 8 }) (int_range 0 30));
          (2, map (fun t -> Log_entry.Tx_end { tid = t }) (int_range 1 50));
        ]
    in
    tup2 (list_size (int_range 1 120) entry) (list_size (int_range 1 12) (int_range 1 20)))

(* Chunk [l] by the cut sizes, cycling; the tail is one final batch. *)
let partition l cuts =
  let rec go l cs acc =
    match l with
    | [] -> List.rev acc
    | _ ->
      let n = match cs with c :: _ -> c | [] -> max_int in
      let cs = match cs with _ :: (_ :: _ as tl) -> tl | other -> other in
      let rec split i l front =
        match l with
        | x :: tl when i < n -> split (i + 1) tl (x :: front)
        | _ -> (List.rev front, l)
      in
      let front, back = split 0 l [] in
      go back cs (front :: acc)
  in
  go l cuts []

let prop_partition_equivalence =
  QCheck2.Test.make ~name:"batch: any partition combines+replays like a full drain"
    ~count:300 gen_group_and_cuts (fun (group, cuts) ->
      let full, _ = Combine.combine group in
      let b = Combine.builder () in
      let chunked =
        List.concat_map
          (fun batch ->
            Combine.feed_list b batch;
            let sealed, _ = Combine.seal b in
            sealed)
          (partition group cuts)
      in
      if Combine.pending b <> 0 then
        QCheck2.Test.fail_reportf "seal left %d entries in the builder"
          (Combine.pending b);
      let h1, a1, e1 = replay_model full in
      let h2, a2, e2 = replay_model chunked in
      if h1 <> h2 then QCheck2.Test.fail_reportf "replayed heap state diverged";
      if a1 <> a2 then
        QCheck2.Test.fail_reportf
          "allocation events differ between partitioned and full combine";
      if e1 <> e2 then
        QCheck2.Test.fail_reportf
          "transaction end marks differ between partitioned and full combine";
      true)

(* One builder reused across seals must behave like fresh builders. *)
let test_builder_reuse () =
  let group =
    [
      Log_entry.Write { addr = 0; value = 1L };
      Log_entry.Write { addr = 8; value = 2L };
      Log_entry.Tx_end { tid = 1 };
      Log_entry.Write { addr = 0; value = 3L };
      Log_entry.Tx_end { tid = 2 };
    ]
  in
  let b = Combine.builder () in
  Combine.feed_list b group;
  let s1, st1 = Combine.seal b in
  check Alcotest.int "all entries fed" 5 st1.Combine.entries_in;
  check Alcotest.int "builder drained" 0 (Combine.pending b);
  (* Second batch through the same builder: no leakage from the first. *)
  Combine.feed b (Log_entry.Write { addr = 16; value = 9L });
  Combine.feed b (Log_entry.Tx_end { tid = 3 });
  let s2, st2 = Combine.seal b in
  check Alcotest.int "second batch counts only its own entries" 2 st2.Combine.entries_in;
  let full, _ = Combine.combine group in
  check Alcotest.bool "first seal equals monolithic combine" true (s1 = full);
  check Alcotest.int "second seal holds only the new write + end" 2 (List.length s2)

(* ------------------- per-batch watermark advance ----------------------- *)

let batch_cfg ?(combine = false) ?(group_size = 1) () =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = 3;
    vlog_capacity = 128;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    checkpoint_records = 2;
    batch_min_entries = 2;
    batch_max_entries = 8;
    batch_deadline = 300;
    combine;
    compress = combine;
    group_size;
    seed = 5;
  }

let counter_tx t thread =
  ignore
    (D.atomically t ~thread (fun tx ->
         let c = Int64.add (D.read tx (D.root_base t)) 1L in
         D.write tx (8 + (8 * (Int64.to_int c mod 8))) c;
         D.write tx (D.root_base t) c))

(* The durable ID sampled at every persist boundary must rise in bounded
   per-batch steps: monotone, never past the last issued transaction, and
   advancing many times (one giant end-of-run flush would advance once). *)
let test_watermark_per_batch () =
  let cfg = batch_cfg () in
  let t = D.create cfg in
  let samples = ref [] in
  Nvm.set_persist_hook (D.nvm t)
    (Some (fun () -> samples := (D.durable_id t, D.last_tid t) :: !samples));
  ignore
    (Sched.run (fun () ->
         D.start t;
         let done_ = ref 0 in
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  for _ = 1 to 30 do
                    Sched.advance 20;
                    counter_tx t th
                  done;
                  incr done_))
         done;
         Sched.wait_until ~label:"workers" (fun () -> !done_ = cfg.Config.nthreads);
         D.drain t;
         D.stop t));
  Nvm.set_persist_hook (D.nvm t) None;
  let samples = List.rev !samples in
  let last = ref 0 and advances = ref 0 in
  List.iter
    (fun (d, issued) ->
      if d < !last then Alcotest.failf "durable watermark regressed: %d after %d" d !last;
      if d > issued then
        Alcotest.failf "durable id %d passed the last issued transaction %d" d issued;
      if d > !last then begin
        incr advances;
        (* Per-batch advance: one record covers at most the entry bound,
           and the smallest transaction here writes 3 entries. *)
        if d - !last > cfg.Config.batch_max_entries then
          Alcotest.failf "watermark jumped %d transactions, batches hold at most %d"
            (d - !last) cfg.Config.batch_max_entries
      end;
      last := d)
    samples;
  check Alcotest.int "everything durable at quiescence" 90 (D.durable_id t);
  if !advances < 10 then
    Alcotest.failf "only %d watermark advances over 90 txs: not per-batch" !advances

(* Sharded: each shard's effective vector watermark must be monotone at
   every persist boundary of every device. *)
let test_vector_watermark_monotone () =
  let cfg = batch_cfg () in
  let nshards = 2 in
  let sh = Sh.create ~nshards cfg in
  let last = Array.make nshards 0 in
  let hook () =
    Array.iteri
      (fun s e ->
        if e < last.(s) then
          Alcotest.failf "shard %d effective watermark regressed: %d after %d" s e last.(s)
        else last.(s) <- e)
      (Sh.effective_vector sh)
  in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         for s = 0 to nshards - 1 do
           Nvm.set_persist_hook (Sh.nvm sh s) (Some hook)
         done;
         for k = 1 to 12 do
           let a = k mod nshards and b = (k + 1) mod nshards in
           ignore
             (Sh.atomically sh ~thread:(k mod 3) ~shards:[ a; b ] (fun tx ->
                  let va = Sh.read tx ~shard:a 0 in
                  let vb = Sh.read tx ~shard:b 0 in
                  Sh.write tx ~shard:a 0 (Int64.sub va 1L);
                  Sh.write tx ~shard:b 0 (Int64.add vb 1L)))
         done;
         for s = 0 to nshards - 1 do
           Nvm.set_persist_hook (Sh.nvm sh s) None
         done;
         Sh.stop sh));
  check Alcotest.bool "watermarks advanced" true (Array.exists (fun e -> e > 0) last)

(* ---------------- deadline batches under bursty arrivals --------------- *)

let test_bursty_deadline_respects_bound () =
  let cfg = batch_cfg () in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         let done_ = ref 0 in
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  let rng = Rng.create (17 + th) in
                  for burst = 1 to 8 do
                    (* A burst of back-to-back commits, then a lull well
                       past the deadline. *)
                    for _ = 1 to 1 + Rng.int rng 6 do
                      counter_tx t th
                    done;
                    Sched.advance (if burst mod 2 = 0 then 2_000 else Rng.int rng 100)
                  done;
                  incr done_))
         done;
         Sched.wait_until ~label:"workers" (fun () -> !done_ = cfg.Config.nthreads);
         D.drain t;
         D.stop t));
  let st = D.stats t in
  let hwm = Stats.get st "batch_hwm_entries" in
  if hwm > cfg.Config.batch_max_entries then
    Alcotest.failf "a batch held %d entries, bound is %d" hwm
      cfg.Config.batch_max_entries;
  check Alcotest.bool "deadline-triggered batches occurred" true
    (Stats.get st "batch_deadline_flushes" > 0);
  check Alcotest.bool "size-triggered batches occurred" true
    (Stats.get st "batch_size_flushes" > 0)

(* ------------------- pipelined combine/flush overlap ------------------- *)

let test_pipeline_overlap_in_trace () =
  Trace.enable ~capacity:(1 lsl 16) ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    (fun () ->
      let cfg =
        {
          (batch_cfg ~combine:true ~group_size:6 ()) with
          Config.pmem =
            (* A slow channel stretches each record's NVM write so the
               combiner demonstrably seals the next batch under it. *)
            {
              Dudetm_nvm.Pmem_config.default with
              Dudetm_nvm.Pmem_config.bandwidth_gbps = 0.25;
              persist_latency = 500;
            };
        }
      in
      let t = D.create cfg in
      ignore
        (Sched.run (fun () ->
             D.start t;
             let done_ = ref 0 in
             for th = 0 to cfg.Config.nthreads - 1 do
               ignore
                 (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                      for _ = 1 to 60 do
                        Sched.advance 20;
                        counter_tx t th
                      done;
                      incr done_))
             done;
             Sched.wait_until ~label:"workers" (fun () ->
                 !done_ = cfg.Config.nthreads);
             D.drain t;
             D.stop t));
      let overlap = Trace.span_overlap ~cat:"persist" "combine" "flush" in
      if overlap <= 0 then
        Alcotest.failf
          "no combine/flush overlap: the persist pipeline did not run stage 2 under \
           stage 1";
      check (Alcotest.list Alcotest.string) "trace structurally clean" []
        (Trace.validate ());
      let json = Trace.to_chrome_json () in
      let has_substring hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "chrome trace carries the combine spans" true
        (has_substring json "\"combine\"");
      check Alcotest.bool "chrome trace carries the flush spans" true
        (has_substring json "\"flush\""))

(* ---------------------- batch crash campaign --------------------------- *)

let test_check_batch_clean () =
  match Check.run ~budget:Check.Smoke "batch" [ ("txs", "4") ] with
  | Check.Pass r ->
    check Alcotest.bool "swept a real boundary count" true (r.Check.boundaries > 20);
    check Alcotest.bool "ran the sweep" true (r.Check.runs > 20)
  | Check.Fail f ->
    Alcotest.failf "clean engine failed the batch campaign: %s (replay: %s)" f.Check.reason
      (Check.replay_line f)

let test_check_batch_catches_skip_seal () =
  match Check.run ~budget:Check.Smoke ~mutant:Config.Skip_batch_seal "batch" [ ("txs", "4") ] with
  | Check.Pass _ -> Alcotest.fail "Skip_batch_seal mutant survived the batch campaign"
  | Check.Fail f ->
    let line = Check.replay_line f in
    let has_substring hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "replay line names the mutant" true
      (has_substring line "--mutate skip-batch-seal");
    check Alcotest.bool "replay line is a --batch invocation" true
      (has_substring line "check --batch")

let test_skip_batch_seal_needs_combine () =
  match
    Config.validate { Config.default with Config.fault = Config.Skip_batch_seal }
  with
  | () -> Alcotest.fail "Skip_batch_seal accepted without the combined persist path"
  | exception Config.Invalid_config _ -> ()

let suite =
  [
    Alcotest.test_case "batch: builder reuse across seals" `Quick test_builder_reuse;
    QCheck_alcotest.to_alcotest prop_partition_equivalence;
    Alcotest.test_case "batch: durable watermark advances per batch" `Quick
      test_watermark_per_batch;
    Alcotest.test_case "batch: shard vector watermark monotone" `Quick
      test_vector_watermark_monotone;
    Alcotest.test_case "batch: bursty deadline batches respect the bound" `Quick
      test_bursty_deadline_respects_bound;
    Alcotest.test_case "batch: combine of k+1 overlaps flush of k" `Quick
      test_pipeline_overlap_in_trace;
    Alcotest.test_case "batch: crash campaign passes the real engine" `Slow
      test_check_batch_clean;
    Alcotest.test_case "batch: crash campaign catches Skip_batch_seal" `Quick
      test_check_batch_catches_skip_seal;
    Alcotest.test_case "batch: Skip_batch_seal requires combine" `Quick
      test_skip_batch_seal_needs_combine;
  ]
