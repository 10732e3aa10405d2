(* Table 1: memory-write statistics of each benchmark under DUDETM
   (1 GB/s, 1000-cycle latency, 4 threads). *)

open Dudetm_harness.Harness

let run ?(scale = 1.0) () =
  section "Table 1: memory writes per benchmark (DUDETM, 1 GB/s, 1000 cycles, 4 threads)";
  Printf.printf "%-18s %14s %14s %16s  %s\n" "Benchmark" "# writes" "Throughput"
    "# writes per tx" "commit latency";
  List.iter
    (fun bench ->
      let bench = { bench with ntxs = int_of_float (float_of_int bench.ntxs *. scale) } in
      let ptm = make_system Dude in
      let r = run_bench ptm bench in
      let writes_per_tx = float_of_int r.writes /. float_of_int r.ntxs_run in
      let writes_per_sec = writes_per_tx *. r.ktps *. 1e3 in
      Printf.printf "%-18s %12.2f M/s %14s %16.1f  %s\n%!" bench.bname (writes_per_sec /. 1e6)
        (pp_ktps r.ktps) writes_per_tx (Dudetm_sim.Stats.Latency.pp r.commit_latency))
    (all_benches ())
