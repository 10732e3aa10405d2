(* YCSB core workloads A-F (extension beyond the paper's Session Store):
   throughput of DudeTM vs the volatile upper bound and Mnemosyne across
   the standard operation mixes, B+-tree storage, Zipf 0.99. *)

open Dudetm_harness.Harness
module W = Dudetm_workloads
module Rng = Dudetm_sim.Rng
module Ptm = Dudetm_baselines.Ptm_intf

let mixes =
  [
    ("A (50r/50u)", W.Ycsb.workload_a);
    ("B (95r/5u)", W.Ycsb.workload_b);
    ("C (read-only)", W.Ycsb.workload_c);
    ("D (95r/5i)", W.Ycsb.workload_d);
    ("E (95scan/5i)", W.Ycsb.workload_e);
    ("F (50r/50rmw)", W.Ycsb.workload_f);
  ]

let systems = [ Volatile; Dude; Mnemosyne ]

let bench_of mix ~ntxs =
  {
    bname = "YCSB";
    think = 400;
    ntxs;
    static_ok = false;
    setup =
      (fun ptm ->
        let y = W.Ycsb.setup ptm ~records:10_000 ~theta:0.99 () in
        let counters = Array.init ptm.Ptm.nthreads (fun _ -> ref 0) in
        fun ~thread ~rng ->
          W.Ycsb.mixed_transaction y mix ~thread ~rng ~insert_counter:counters.(thread));
  }

let run ?(scale = 1.0) () =
  section "YCSB core workloads A-F (B+-tree, 10K records, Zipf 0.99, 4 threads)";
  Printf.printf "%-16s" "Workload";
  List.iter (fun s -> Printf.printf "%14s" (system_name s)) systems;
  print_newline ();
  List.iter
    (fun (name, mix) ->
      Printf.printf "%-16s" name;
      let dude_r = ref None in
      List.iter
        (fun sys ->
          let ntxs = int_of_float (10_000.0 *. scale) in
          let r = run_bench (make_system sys) (bench_of mix ~ntxs) in
          if sys = Dude then dude_r := Some r;
          Printf.printf "%14s%!" (pp_ktps r.ktps))
        systems;
      print_newline ();
      Option.iter (report_commit_latency ("DUDETM " ^ name)) !dude_r)
    mixes
