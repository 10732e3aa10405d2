(* Figure 2: throughput of Volatile-STM / DUDETM-Inf / DUDETM / DUDETM-Sync
   across NVM write bandwidth (1-16 GB/s), six benchmarks. *)

open Dudetm_harness.Harness

let bandwidths = [ 1.0; 2.0; 4.0; 8.0; 16.0 ]

let systems = [ Volatile; Dude_inf; Dude; Dude_sync; Dude_sync_pcm ]

let run ?(scale = 1.0) () =
  section "Figure 2: throughput vs NVM bandwidth (4 threads, latency 1000 cycles;\nDUDETM-Sync(3500) shows the paper's PCM-latency sensitivity)";
  let scale_bench b = { b with ntxs = int_of_float (float_of_int b.ntxs *. scale) } in
  List.iter
    (fun bench ->
      let bench = scale_bench bench in
      Printf.printf "\n[%s]\n%-18s" bench.bname "system";
      List.iter (fun bw -> Printf.printf "%12s" (Printf.sprintf "%.0f GB/s" bw)) bandwidths;
      print_newline ();
      let dude_r = ref None in
      List.iter
        (fun sys ->
          Printf.printf "%-18s" (system_name sys);
          List.iter
            (fun bw ->
              if sys = Volatile && bw > 1.0 then Printf.printf "%12s%!" "\""
              else begin
                let ptm = make_system ~bandwidth:bw sys in
                let r = run_bench ptm bench in
                if sys = Dude && bw = 1.0 then dude_r := Some r;
                Printf.printf "%12s%!" (Printf.sprintf "%.2fM" (r.ktps /. 1000.0))
              end)
            bandwidths;
          print_newline ())
        systems;
      Option.iter (report_commit_latency "DUDETM @1GB/s") !dude_r)
    (all_benches ())
