(* Figure 4: swap overhead — throughput of updating a B+-tree key-value
   store as the shadow DRAM shrinks below the NVM size, for two Zipfian
   constants and both paging implementations (software page table vs
   hardware/TLB with shootdowns). *)

open Dudetm_harness.Harness
module W = Dudetm_workloads
module Config = Dudetm_core.Config
module Shadow = Dudetm_shadow.Shadow
module Rng = Dudetm_sim.Rng
module B = Dudetm_baselines
module Ptm = B.Ptm_intf

let heap = 8 * 1024 * 1024

let records = 160_000

let shadow_fracs = [ 1.0; 0.5; 0.25; 0.125 ]

let thetas = [ 0.99; 1.07 ]

(* Returns the result and the point's host seconds (wall clock): setup
   (engine creation plus the YCSB load) and the measured run with its
   drain. *)
let run_point ~mode ~frames ~theta ~ntxs =
  let t0 = Unix.gettimeofday () in
  let setup_end = ref t0 in
  let cfg =
    {
      (dude_config ~heap ()) with
      Config.shadow_frames = Some frames;
      shadow_mode = mode;
    }
  in
  let ptm, _ = B.Dude_ptm.Stm.ptm cfg in
  let bench =
    {
      bname = "swap";
      think = 300;
      ntxs;
      static_ok = false;
      setup =
        (fun ptm ->
          let y = W.Ycsb.setup ptm ~records ~theta ~read_fraction:0.0 () in
          setup_end := Unix.gettimeofday ();
          fun ~thread ~rng ->
            W.Ycsb.update_only y ~thread ~rng;
            0);
    }
  in
  let r = run_bench ptm bench in
  (r, !setup_end -. t0, Unix.gettimeofday () -. !setup_end)

let run ?(scale = 1.0) () =
  section "Figure 4: swap overhead vs shadow-memory size\n(B+-tree KV update workload; NVM heap 8 MiB, working set ~65%; 4 threads)";
  let ntxs = int_of_float (20_000.0 *. scale) in
  let pages = heap / 4096 in
  Printf.printf "%-22s %-8s" "series" "theta";
  List.iter (fun f -> Printf.printf "%14s" (Printf.sprintf "%.0f%% shadow" (100.0 *. f))) shadow_fracs;
  print_newline ();
  let full_shadow_r = ref None in
  List.iter
    (fun mode ->
      List.iter
        (fun theta ->
          let series =
            match mode with Shadow.Software -> "software paging" | Shadow.Hardware -> "hardware paging"
          in
          Printf.printf "%-22s %-8.2f" series theta;
          List.iter
            (fun frac ->
              let frames = max 64 (int_of_float (float_of_int pages *. frac)) in
              let r, setup_s, measured_s = run_point ~mode ~frames ~theta ~ntxs in
              if mode = Shadow.Software && theta = 0.99 && frac = 1.0 then
                full_shadow_r := Some r;
              Printf.printf "%14s%!" (pp_ktps r.ktps);
              Printf.eprintf "fig4 %s theta %.2f %.0f%% shadow: setup %.2f s, measured %.2f s wall\n%!"
                series theta (100.0 *. frac) setup_s measured_s)
            shadow_fracs;
          print_newline ())
        thetas)
    [ Shadow.Software; Shadow.Hardware ];
  Option.iter (report_commit_latency "software, th 0.99, 100%") !full_shadow_r
