(* Table 2: throughput comparison with the existing durable-transaction
   systems, Mnemosyne and NVML (1 GB/s, 1000 cycles, 4 threads).  NVML only
   runs the hash-based benchmarks (static transactions), as in the paper. *)

open Dudetm_harness.Harness

let systems = [ Dude; Dude_sync; Mnemosyne; Nvml ]

let run ?(scale = 1.0) () =
  section "Table 2: throughput vs Mnemosyne and NVML (1 GB/s, 1000 cycles, 4 threads)";
  Printf.printf "%-18s" "Benchmark";
  List.iter (fun s -> Printf.printf "%14s" (system_name s)) systems;
  print_newline ();
  List.iter
    (fun bench ->
      let bench = { bench with ntxs = int_of_float (float_of_int bench.ntxs *. scale) } in
      Printf.printf "%-18s" bench.bname;
      let dude_r = ref None in
      List.iter
        (fun sys ->
          if sys = Nvml && not bench.static_ok then Printf.printf "%14s%!" "-"
          else begin
            let r = run_bench (make_system sys) bench in
            if sys = Dude then dude_r := Some r;
            Printf.printf "%14s%!" (pp_ktps r.ktps)
          end)
        systems;
      print_newline ();
      Option.iter (report_commit_latency ("DUDETM " ^ bench.bname)) !dude_r)
    (all_benches ())
