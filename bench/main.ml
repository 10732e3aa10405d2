(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation section
   (printing paper-shaped tables).

   The gated experiments record ledger rows and gates: after the selected
   experiments run, the rows go to BENCH_ledger.tsv, every gate is
   reported, and the run exits 1 if any gate failed.

     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig2 table3     # selected experiments
     dune exec bench/main.exe -- --scale 0.25    # quicker, smaller runs
     dune exec bench/main.exe -- --full          # adds the 100k group to fig3 *)

module Ledger = Dudetm_harness.Harness.Ledger

(* Every experiment: its name and its run. *)
let experiments scale full ledger =
  [
    ("fig2", fun () -> Fig2.run ~scale ());
    ("table1", fun () -> Table1.run ~scale ());
    ("table2", fun () -> Table2.run ~scale ());
    ("table3", fun () -> Table3.run ~scale ());
    ("fig3", fun () -> Fig3.run ~full ());
    ("fig4", fun () -> Fig4.run ~scale ());
    ("fig5", fun () -> Fig5.run ~scale ());
    ("table4", fun () -> Table4.run ~scale ());
    ("ablation", fun () -> Ablation.run ~scale ());
    ("ycsb", fun () -> Ycsb_bench.run ~scale ());
    ("recovery", fun () -> Recovery_bench.run ~scale ledger);
    ("trace", fun () -> Trace_bench.run ~scale ledger);
    ("shard", fun () -> Shard_bench.run ~scale ledger);
    ("replica", fun () -> Replica_bench.run ~scale ledger);
    ("migrate", fun () -> Migrate_bench.run ~scale ledger);
    ("snapshot", fun () -> Snapshot_bench.run ~scale ledger);
    ("serve", fun () -> Serve_bench.run ~scale ledger);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1.0 in
  let full = ref false in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--full" :: rest ->
      full := true;
      parse rest
    | name :: rest ->
      selected := name :: !selected;
      parse rest
  in
  parse args;
  let ledger = Ledger.create () in
  let exps = experiments !scale !full ledger in
  let wanted =
    if !selected = [] then exps
    else
      List.map
        (fun name ->
          match List.find_opt (fun (n, _) -> n = name) exps with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S (have: %s)\n" name
              (String.concat ", " (List.map fst exps));
            exit 2)
        (List.rev !selected)
  in
  List.iter (fun (_, run) -> run ()) wanted;
  print_newline ();
  Ledger.write ledger "BENCH_ledger.tsv";
  let gates = Ledger.check ledger in
  List.iter
    (fun (line, ok) -> Printf.printf "%s %s\n" (if ok then "gate ok  " else "GATE FAIL") line)
    gates;
  if List.exists (fun (_, ok) -> not ok) gates then exit 1
