(* Table 4: DUDETM over STM vs over (simulated) HTM, with the volatile TM
   upper bounds and the paper's slowdown rows.  Also reports the stock-
   hardware ablation: without the paper's proposed conflict-exempt range
   for the transaction-ID counter, every committing transaction dooms all
   concurrent ones. *)

open Dudetm_harness.Harness
module B = Dudetm_baselines
module W = Dudetm_workloads
module Ptm = B.Ptm_intf
module Config = Dudetm_core.Config

(* Simulated RTM whose global tx-ID counter is NOT conflict-exempt: the
   stock-hardware configuration the paper deems unusable. *)
module Htm_stock = struct
  include Dudetm_tm.Htm

  let create ?seed store = create_htm ?seed ~tid_conflicts:true store
end

module Dude_htm_stock = B.Dude_ptm.Make (Htm_stock)

let benches ~scale =
  let s b = { b with ntxs = int_of_float (float_of_int b.ntxs *. scale) } in
  [ s (bptree_bench ()); s (hashtable_bench ()); s (tatp_bench ~storage:W.Kv.Tree ()) ]

type row = { rname : string; make : unit -> Ptm.t }

let rows =
  [
    { rname = "Volatile-STM"; make = (fun () -> make_system Volatile) };
    { rname = "DUDETM-STM"; make = (fun () -> make_system Dude) };
    { rname = "Volatile-HTM"; make = (fun () -> B.Volatile_stm.ptm_htm ~heap_size:(32 * 1024 * 1024) ()) };
    {
      rname = "DUDETM-HTM";
      make = (fun () -> fst (B.Dude_ptm.Htm_based.ptm ~name:"DUDETM-HTM" (dude_config ())));
    };
  ]

let aborts counters =
  List.fold_left (fun acc (k, v) -> if k = "tm.aborts" then acc + v else acc) 0 counters

let run ?(scale = 1.0) () =
  section "Table 4: DUDETM on STM vs HTM (1 GB/s, 1000 cycles, 4 threads)";
  let benches = benches ~scale in
  Printf.printf "%-16s" "";
  List.iter (fun b -> Printf.printf "%16s" b.bname) benches;
  print_newline ();
  let results =
    List.map (fun row -> (row, List.map (fun b -> run_bench (row.make ()) b) benches)) rows
  in
  let print_row name rs =
    Printf.printf "%-16s" name;
    List.iter (fun r -> Printf.printf "%16s" (pp_ktps r.ktps)) rs;
    print_newline ()
  in
  (match results with
  | [ (r0, v_stm); (r1, d_stm); (r2, v_htm); (r3, d_htm) ] ->
    print_row r0.rname v_stm;
    print_row r1.rname d_stm;
    Printf.printf "%-16s" "  slowdown";
    List.iter2
      (fun v d -> Printf.printf "%15.0f%%" (100.0 *. (1.0 -. (d.ktps /. v.ktps))))
      v_stm d_stm;
    print_newline ();
    print_row r2.rname v_htm;
    print_row r3.rname d_htm;
    Printf.printf "%-16s" "  slowdown";
    List.iter2
      (fun v d -> Printf.printf "%15.0f%%" (100.0 *. (1.0 -. (d.ktps /. v.ktps))))
      v_htm d_htm;
    print_newline ();
    Printf.printf "%-16s" "HTM speedup";
    List.iter2
      (fun d s -> Printf.printf "%15.2fx" (d.ktps /. s.ktps))
      d_htm d_stm;
    print_newline ();
    List.iter2
      (fun b r -> report_commit_latency ("DUDETM-STM " ^ b.bname) r)
      benches d_stm
  | _ -> assert false);
  (* Ablation: the proposed hardware change matters. *)
  Printf.printf "\nAblation: stock HTM (tx-ID counter causes conflicts) on HashTable:\n";
  let bench = List.nth benches 1 in
  let modified = fst (B.Dude_ptm.Htm_based.ptm ~name:"modified" (dude_config ())) in
  let stock = fst (Dude_htm_stock.ptm ~name:"stock" (dude_config ())) in
  let rm = run_bench modified bench in
  let rs = run_bench stock bench in
  Printf.printf "  modified HTM (conflict-exempt counter): %s, %d aborts\n"
    (pp_ktps rm.ktps) (aborts rm.counters);
  Printf.printf "  stock HTM (counter conflicts):          %s, %d aborts\n"
    (pp_ktps rs.ktps) (aborts rs.counters)
