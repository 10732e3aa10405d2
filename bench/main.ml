(* Benchmark harness entry point.

   Default mode regenerates every table and figure of the paper's
   evaluation section (printing paper-shaped tables); `--bechamel` instead
   runs one Bechamel micro-benchmark per table/figure over scaled-down
   instances, reporting wall-clock cost of the harness itself.

   The gated experiments record ledger rows and gates: after the selected
   experiments run, the rows go to BENCH_ledger.tsv, every gate is
   reported, and the run exits 1 if any gate failed.

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig2 table3     # selected experiments
     dune exec bench/main.exe -- --scale 0.25    # quicker, smaller runs
     dune exec bench/main.exe -- --full          # adds the 100k group to fig3
     dune exec bench/main.exe -- --bechamel      # Bechamel micro-bench mode *)

module Ledger = Dudetm_harness.Harness.Ledger

(* Every experiment: its name, its full run, and the scaled-down instance
   Bechamel times. *)
let experiments scale full ledger =
  [
    ("fig2", (fun () -> Fig2.run ~scale ()), Fig2.tiny);
    ("table1", (fun () -> Table1.run ~scale ()), Table1.tiny);
    ("table2", (fun () -> Table2.run ~scale ()), Table2.tiny);
    ("table3", (fun () -> Table3.run ~scale ()), Table3.tiny);
    ("fig3", (fun () -> Fig3.run ~full ()), Fig3.tiny);
    ("fig4", (fun () -> Fig4.run ~scale ()), Fig4.tiny);
    ("fig5", (fun () -> Fig5.run ~scale ()), Fig5.tiny);
    ("table4", (fun () -> Table4.run ~scale ()), Table4.tiny);
    ("ablation", (fun () -> Ablation.run ~scale ()), Ablation.tiny);
    ("ycsb", (fun () -> Ycsb_bench.run ~scale ()), Ycsb_bench.tiny);
    ("recovery", (fun () -> Recovery_bench.run ~scale ledger), Recovery_bench.tiny);
    ("trace", (fun () -> Trace_bench.run ~scale ledger), Trace_bench.tiny);
    ("shard", (fun () -> Shard_bench.run ~scale ledger), Shard_bench.tiny);
    ("replica", (fun () -> Replica_bench.run ~scale ledger), Replica_bench.tiny);
    ("migrate", (fun () -> Migrate_bench.run ~scale ledger), Migrate_bench.tiny);
    ("snapshot", (fun () -> Snapshot_bench.run ~scale ledger), Snapshot_bench.tiny);
    ("serve", (fun () -> Serve_bench.run ~scale ledger), Serve_bench.tiny);
  ]

let run_bechamel () =
  let open Bechamel in
  let tests =
    List.map
      (fun (name, _, tiny) -> Test.make ~name (Staged.stage tiny))
      (experiments 1.0 false (Ledger.create ()))
  in
  let grouped = Test.make_grouped ~name:"dudetm" ~fmt:"%s/%s" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "%-24s %16s\n" "benchmark" "wall per run";
  Hashtbl.iter
    (fun name res ->
      match Analyze.OLS.estimates res with
      | Some [ t ] -> Printf.printf "%-24s %13.3f ms\n" name (t /. 1e6)
      | _ -> Printf.printf "%-24s %16s\n" name "n/a")
    results

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1.0 in
  let full = ref false in
  let bechamel = ref false in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--full" :: rest ->
      full := true;
      parse rest
    | "--bechamel" :: rest ->
      bechamel := true;
      parse rest
    | name :: rest ->
      selected := name :: !selected;
      parse rest
  in
  parse args;
  if !bechamel then run_bechamel ()
  else begin
    let ledger = Ledger.create () in
    let exps = experiments !scale !full ledger in
    let wanted =
      if !selected = [] then exps
      else
        List.map
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) exps with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %S (have: %s)\n" name
                (String.concat ", " (List.map (fun (n, _, _) -> n) exps));
              exit 2)
          (List.rev !selected)
    in
    List.iter (fun (_, run, _) -> run ()) wanted;
    print_newline ();
    Ledger.write ledger "BENCH_ledger.tsv";
    let gates = Ledger.check ledger in
    List.iter
      (fun (line, ok) -> Printf.printf "%s %s\n" (if ok then "gate ok  " else "GATE FAIL") line)
      gates;
    if List.exists (fun (_, ok) -> not ok) gates then exit 1
  end
