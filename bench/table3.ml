(* Table 3: durable-transaction latency distribution of the hash-based
   TPC-C benchmark, measured with the paper's acknowledgement protocol
   (Section 5.3): a thread checks the global durable ID after each of its
   transactions and acknowledges everything at or below it. *)

open Dudetm_harness.Harness
module Stats = Dudetm_sim.Stats
module Cycles = Dudetm_sim.Cycles

let systems = [ Dude; Dude_sync; Mnemosyne; Nvml ]

let percentiles = [ 50.0; 90.0; 99.0 ]

let run ?(scale = 1.0) () =
  section "Table 3: durable transaction latency, TPC-C (hash)";
  let bench = tpcc_bench ~storage:Dudetm_workloads.Kv.Hash () in
  let bench = { bench with ntxs = int_of_float (float_of_int bench.ntxs *. scale) } in
  let results =
    List.map (fun sys -> (sys, run_bench ~measure_latency:true (make_system sys) bench)) systems
  in
  Printf.printf "%-12s" "Percentage";
  List.iter (fun (s, _) -> Printf.printf "%16s" (system_name s)) results;
  print_newline ();
  List.iter
    (fun p ->
      Printf.printf "%-12s" (Printf.sprintf "%.0f%%" p);
      List.iter
        (fun (_, r) ->
          Printf.printf "%16s"
            (Printf.sprintf "%.0f us" (Cycles.to_us (Stats.Latency.percentile r.latency p))))
        results;
      print_newline ())
    percentiles;
  List.iter (fun (s, r) -> report_commit_latency (system_name s) r) results
