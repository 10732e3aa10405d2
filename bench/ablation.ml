(* Ablations of DudeTM's design choices (not in the paper's evaluation, but
   directly supporting its design claims):

   A. Persist-thread count — Section 3.3 claims "typically one is enough".
   B. Volatile log capacity — the knob separating DUDETM from DUDETM-Inf;
      Finding (2) says Perform rarely blocks on a full buffer.
   C. Reproduce batch size — one persist ordering amortized over a batch of
      reproduced transactions (Section 3.4's "only necessary persistence
      ordering" argument).
   D. Lock-table size — stripe-hash false conflicts vs the paper's large
      TinySTM lock array (large transactions need a sparse table).       *)

open Dudetm_harness.Harness
module B = Dudetm_baselines
module W = Dudetm_workloads
module Config = Dudetm_core.Config
module Tm_intf = Dudetm_tm.Tm_intf
module Lock_table = Dudetm_tm.Lock_table
module Stats = Dudetm_sim.Stats

let run_dude cfg bench =
  let ptm, _ = B.Dude_ptm.Stm.ptm cfg in
  run_bench ptm bench

let counter r name = List.assoc_opt name r.counters |> Option.value ~default:0

let ablation_persist_threads ~scale =
  Printf.printf "\n[A] persist threads (B+tree, 4 Perform threads, 1 GB/s):\n";
  Printf.printf "%-18s %12s %16s\n" "persist threads" "throughput" "producer blocks";
  List.iter
    (fun p ->
      let cfg =
        {
          (dude_config ()) with
          Config.persist = Config.Per_thread { daemons = p; min_entries = 16; max_entries = 128 };
        }
      in
      let bench = { (bptree_bench ()) with ntxs = int_of_float (8000.0 *. scale) } in
      let ptm, d = B.Dude_ptm.Stm.ptm cfg in
      let r = run_bench ptm bench in
      Printf.printf "%-18d %12s %16d\n%!" p (pp_ktps r.ktps)
        (B.Dude_ptm.Stm.D.vlog_producer_blocks d);
      if p = 1 then report_commit_latency "1 persist thread" r)
    [ 1; 2; 4 ]

let ablation_vlog_capacity ~scale =
  Printf.printf
    "\n[B] volatile log capacity (HashTable, 4 entries/tx; blocking only appears\n    once the ring is small enough that Persist cannot stay ahead):\n";
  Printf.printf "%-18s %12s %16s\n" "vlog entries" "throughput" "producer blocks";
  List.iter
    (fun cap ->
      let cfg = { (dude_config ()) with Config.vlog_capacity = cap } in
      let bench = { (hashtable_bench ()) with ntxs = int_of_float (8000.0 *. scale) } in
      let ptm, d = B.Dude_ptm.Stm.ptm cfg in
      let r = run_bench ptm bench in
      Printf.printf "%-18d %12s %16d\n%!" cap (pp_ktps r.ktps)
        (B.Dude_ptm.Stm.D.vlog_producer_blocks d))
    [ 16; 64; 512; 131072 ]

let ablation_reproduce_batch ~scale =
  Printf.printf "\n[C] reproduce batch (HashTable; persist orderings amortize over the batch):\n";
  Printf.printf "%-18s %12s %18s\n" "batch (txs)" "throughput" "persist orderings";
  List.iter
    (fun batch ->
      let cfg = { (dude_config ()) with Config.reproduce_batch = batch } in
      let bench = { (hashtable_bench ()) with ntxs = int_of_float (8000.0 *. scale) } in
      let ptm, d = B.Dude_ptm.Stm.ptm cfg in
      let r = run_bench ptm bench in
      ignore d;
      let ops =
        match ptm.B.Ptm_intf.nvm with
        | Some nvm -> Dudetm_nvm.Nvm.persist_ops nvm
        | None -> 0
      in
      Printf.printf "%-18d %12s %18d\n%!" batch (pp_ktps r.ktps) ops)
    [ 1; 8; 64; 512 ]

(* DudeTM over TinySTMs with different lock-table sizes: small tables
   manufacture stripe-hash false conflicts on TPC-C's ~300-word read
   sets. *)
module Stm_bits (Bits : sig
  val bits : int
end) =
struct
  include Dudetm_tm.Tinystm

  let create ?seed store = create_with_bits ?seed ~bits:Bits.bits store
end

module Dude_16 = B.Dude_ptm.Make (Stm_bits (struct let bits = 16 end))
module Dude_20 = B.Dude_ptm.Make (Stm_bits (struct let bits = 20 end))

let ablation_lock_table ~scale =
  Printf.printf
    "\n[D] TM lock-table stripes (TPC-C B+tree, 4 threads; small tables\n    manufacture stripe-hash false conflicts on large read sets; at 8\n    threads a small table's abort storm approaches livelock):\n%!";
  Printf.printf "%-18s %12s %12s\n" "stripes" "throughput" "aborts";
  (* Capped at 800 transactions: with very small tables the abort storm
     makes larger runs take unboundedly long (which is the point being
     demonstrated). *)
  let bench =
    { (tpcc_bench ~storage:W.Kv.Tree ~items:10_000 ()) with
      ntxs = int_of_float (800.0 *. Float.min scale 1.0);
    }
  in
  let cfg = dude_config ~nthreads:4 () in
  let run name make =
    let ptm, _ = make cfg in
    let r = run_bench ptm bench in
    Printf.printf "%-18s %12s %12d\n%!" name (pp_ktps r.ktps) (counter r "tm.aborts")
  in
  (* 2^14 is omitted from the default sweep: at 8 threads its abort storm
     approaches livelock (the extreme end of the effect being shown). *)
  run "2^16" (Dude_16.ptm ~name:"dude-16");
  run "2^20 (default)" (Dude_20.ptm ~name:"dude-20")

(* Write-through vs write-back STM access under DudeTM (Section 4.1's
   design choice): write-back adds a write-set probe to every read and
   defers stores to commit. *)
module Dude_wb = B.Dude_ptm.Make (Dudetm_tm.Tinystm_wb)

let ablation_access_mode ~scale =
  Printf.printf
    "\n[F] STM access mode under DudeTM (Section 4.1: write-through permits\n    in-place shadow updates; write-back pays read redirection):\n";
  Printf.printf "%-18s %14s %14s\n" "access mode" "B+tree" "TATP (B+tree)";
  let benches =
    [ { (bptree_bench ()) with ntxs = int_of_float (6000.0 *. scale) };
      { (tatp_bench ~storage:W.Kv.Tree ()) with ntxs = int_of_float (8000.0 *. scale) } ]
  in
  let row name make =
    Printf.printf "%-18s" name;
    List.iter
      (fun bench ->
        let ptm, _ = make (dude_config ()) in
        let r = run_bench ptm bench in
        Printf.printf "%14s%!" (pp_ktps r.ktps))
      benches;
    print_newline ()
  in
  row "write-through" (B.Dude_ptm.Stm.ptm ~name:"dude-wt");
  row "write-back" (Dude_wb.ptm ~name:"dude-wb")

(* Section 5.2.2's microbenchmark: maximum empty-transaction rate per
   thread.  The paper reports 30M+/s for DudeTM/Mnemosyne and at most
   1.14M/s for NVML (its per-transaction metadata allocation). *)
let empty_tx_rate ~scale =
  Printf.printf "\n[E] empty transactions per second per thread (Section 5.2.2):\n";
  let ntxs = int_of_float (20_000.0 *. scale) in
  List.iter
    (fun sys ->
      let ptm = make_system ~nthreads:1 sys in
      let bench =
        {
          bname = "empty";
          think = 0;
          ntxs;
          static_ok = true;
          setup =
            (fun ptm ->
              fun ~thread ~rng ->
                ignore rng;
                (* A read-only no-op transaction (one read, no writes). *)
                let wset = if ptm.B.Ptm_intf.requires_static then Some [] else None in
                (match ptm.B.Ptm_intf.atomically ~thread ?wset (fun tx -> ignore (tx.B.Ptm_intf.read 0)) with
                | Some _ -> ()
                | None -> ());
                0);
        }
      in
      let r = run_bench ptm bench in
      Printf.printf "  %-14s %10.2f M/s\n%!" (system_name sys) (r.ktps /. 1000.0))
    [ Dude; Mnemosyne; Nvml ]

let run ?(scale = 1.0) () =
  section
    "Ablations: persist-thread count, volatile-log capacity, reproduce batch,\nlock-table size (design choices behind Sections 3.3-3.4)";
  ablation_persist_threads ~scale;
  ablation_vlog_capacity ~scale;
  ablation_reproduce_batch ~scale;
  ablation_lock_table ~scale;
  ablation_access_mode ~scale;
  empty_tx_rate ~scale
