(* Recovery-time experiment (an extension beyond the paper's evaluation):
   how long does recovery take as a function of the un-reproduced log
   backlog at crash time?

   Section 3.5 argues recovery is a bounded replay of the persistent log
   region.  We crash the counter workload at increasing backlogs (by
   stalling Reproduce — modelled here by growing the persistent rings and
   crashing earlier or later in the run) and measure the simulated cycles
   the recovery scan + replay would cost, derived from the replayed entry
   counts and the same per-entry costs Reproduce is charged.

   Every simulated number of a crash point is a ledger row: the recovery
   report's counters (layer "engine") and the persist orderings and bytes
   recovery itself issues while replaying, checkpointing and journalling
   (layer "nvm").  Host wall time is printed, never a row. *)

open Dudetm_harness.Harness
module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Cycles = Dudetm_sim.Cycles
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)
module L = Ledger

let cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 21;
    nthreads = 4;
    vlog_capacity = 1 lsl 16;
    plog_size = 1 lsl 22;
    (* Rare checkpoints leave a long durable tail to replay. *)
    reproduce_batch = 256;
    checkpoint_records = 1_000_000;
  }

let run_point ~crash_cycles =
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  while true do
                    ignore
                      (D.atomically t ~thread:th (fun tx ->
                           let c = D.read tx 0 in
                           let c1 = Int64.add c 1L in
                           D.write tx (8 + (8 * (Int64.to_int c1 land 1023))) c1;
                           D.write tx 0 c1))
                  done))
         done;
         Sched.advance crash_cycles;
         Sched.halt ()));
  let nvm = D.nvm t in
  Nvm.crash nvm;
  let ops0 = Nvm.persist_ops nvm and bytes0 = Nvm.persisted_write_bytes nvm in
  let wall0 = Sys.time () in
  let _, report = D.attach cfg nvm in
  let wall = Sys.time () -. wall0 in
  (report, Nvm.persist_ops nvm - ops0, Nvm.persisted_write_bytes nvm - bytes0, wall)

let run ?(scale = 1.0) led =
  section "Recovery cost vs durable log backlog (extension experiment)";
  Printf.printf "%-16s %10s %10s %12s %16s\n" "crash at" "durable" "replayed" "discarded"
    "recovery wall";
  List.iter
    (fun cycles ->
      let cycles = int_of_float (float_of_int cycles *. scale) in
      let r, persist_ops, persist_bytes, wall = run_point ~crash_cycles:cycles in
      let scenario = Printf.sprintf "recovery/crash=%d" cycles in
      L.add led ~scenario ~layer:"engine"
        (L.ints "txs"
           [
             ("durable", r.Dudetm_core.Dudetm.durable);
             ("replayed_txs", r.replayed_txs);
             ("discarded_txs", r.discarded_txs);
           ]
        @ L.ints "records"
            [
              ("discarded_records", r.discarded_records);
              ("corrupted_records", r.corrupted_records);
            ]
        @ [ ("quarantined_lines", "lines", L.Int r.quarantined_lines) ]);
      L.add led ~scenario ~layer:"nvm"
        [
          ("persist_ops", "ops", L.Int persist_ops);
          ("persist_bytes", "bytes", L.Int persist_bytes);
        ];
      Printf.printf "%-16s %10d %10d %12d %13.1f ms\n%!"
        (Printf.sprintf "%.2f ms" (Cycles.to_us cycles /. 1000.0))
        r.durable r.replayed_txs r.discarded_txs (wall *. 1e3))
    [ 50_000; 200_000; 800_000; 3_200_000 ]
