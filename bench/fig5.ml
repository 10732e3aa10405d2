(* Figure 5: scalability — B+-tree TPC-C throughput vs thread count,
   normalized to one thread, for TinySTM (volatile), DUDETM, and the
   low-conflict DUDETM variant where each thread serves a fixed district. *)

open Dudetm_harness.Harness
module W = Dudetm_workloads

let thread_counts = [ 1; 2; 4; 8 ]

type series = { sname : string; make : int -> Dudetm_baselines.Ptm_intf.t; fixed_district : bool }

let series =
  [
    { sname = "TinySTM (volatile)"; make = (fun n -> make_system ~nthreads:n Volatile); fixed_district = false };
    { sname = "DUDETM"; make = (fun n -> make_system ~nthreads:n Dude); fixed_district = false };
    { sname = "DUDETM (per-district)"; make = (fun n -> make_system ~nthreads:n Dude); fixed_district = true };
  ]

let run ?(scale = 1.0) () =
  section "Figure 5: scalability, TPC-C (B+-tree), normalized to 1 thread\n(1 GB/s, 1000 cycles; per-district = each thread serves a fixed district)";
  Printf.printf "%-24s" "series";
  List.iter (fun n -> Printf.printf "%10d thr" n) thread_counts;
  print_newline ();
  let dude_r = ref None in
  List.iter
    (fun s ->
      Printf.printf "%-24s" s.sname;
      let base = ref 0.0 in
      List.iter
        (fun n ->
          let district_of_thread = if s.fixed_district then Some (fun th -> 1 + th) else None in
          (* TPC-C specifies 100k items; the base benchmarks scale that to
             1000, which at 8 threads manufactures stock-row conflicts the
             paper's setup does not have.  Use 10k here. *)
          let bench =
            {
              (tpcc_bench ~storage:W.Kv.Tree ~items:10_000 ?district_of_thread ()) with
              ntxs = int_of_float (float_of_int (250 * n) *. scale);
            }
          in
          let r = run_bench (s.make n) bench in
          if n = 1 then base := r.ktps;
          if s.sname = "DUDETM" && n = 4 then dude_r := Some r;
          Printf.printf "%10.2fx%!" (r.ktps /. !base))
        thread_counts;
      print_newline ())
    series;
  Option.iter (report_commit_latency "DUDETM, 4 threads") !dude_r
