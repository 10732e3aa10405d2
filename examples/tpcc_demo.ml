(* TPC-C New Order on DudeTM: the paper's write-intensive macro-benchmark
   as an application of the public API — multi-table transactions,
   persistent allocation, crash, recovery, re-attach, and a full
   consistency audit.

     dune exec examples/tpcc_demo.exe *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Cycles = Dudetm_sim.Cycles
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module W = Dudetm_workloads
module Ptm = B.Ptm_intf

let cfg =
  {
    Config.default with
    Config.nthreads = 4;
    heap_size = 8 * 1024 * 1024;
    vlog_capacity = 8192;
    plog_size = 1 lsl 17;
  }

let print_district_summary t =
  print_string "orders per district:";
  for d = 1 to 10 do
    Printf.printf " %d" (W.Tpcc.order_count t ~district:d)
  done;
  print_newline ()

let () =
  print_endline "== TPC-C (New Order) on DudeTM ==";
  let ptm, d = B.Dude_ptm.Stm.ptm cfg in
  let module D = B.Dude_ptm.Stm.D in
  let tpcc = W.Tpcc.setup ptm ~storage:W.Kv.Tree ~items:200 () in
  let committed = ref 0 in

  (* Run New Order transactions on four terminals until the power fails. *)
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         for thread = 0 to 3 do
           ignore
             (Sched.spawn (Printf.sprintf "terminal-%d" thread) (fun () ->
                  let rng = Rng.create (2024 + thread) in
                  while true do
                    ignore (W.Tpcc.new_order tpcc ~thread ~rng ());
                    incr committed
                  done))
         done;
         Sched.advance 4_000_000 (* ~1.2 simulated ms *);
         Sched.halt ()));
  Printf.printf "committed %d New Order transactions before the crash\n" !committed;
  print_district_summary tpcc;

  print_endline "\n-- power failure (half the dirty cache lines leak to NVM) --";
  Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create 3) (D.nvm d);

  let ptm2, _, report = B.Dude_ptm.Stm.attach_ptm cfg (D.nvm d) in
  Printf.printf "recovery: durable id %d, %d transactions replayed, %d in-flight discarded\n"
    report.Dudetm_core.Dudetm.durable report.Dudetm_core.Dudetm.replayed_txs
    report.Dudetm_core.Dudetm.discarded_txs;

  (* Re-open the database from its persistent root directory and audit it. *)
  let tpcc2 = W.Tpcc.attach ptm2 in
  print_district_summary tpcc2;
  (try
     W.Tpcc.consistency_check tpcc2;
     print_endline "OK: all TPC-C invariants hold on the recovered database"
   with Failure msg ->
     Printf.printf "FAILURE: %s\n" msg;
     exit 1);

  (* Business continues. *)
  ignore
    (Sched.run (fun () ->
         ptm2.Ptm.start ();
         let rng = Rng.create 77 in
         for _ = 1 to 50 do
           ignore (W.Tpcc.new_order tpcc2 ~thread:0 ~rng ())
         done;
         ptm2.Ptm.drain ();
         ptm2.Ptm.stop ()));
  W.Tpcc.consistency_check tpcc2;
  print_endline "OK: 50 more orders processed after recovery; invariants still hold.";
  print_district_summary tpcc2
