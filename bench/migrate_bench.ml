(* Live-resharding experiment (extension beyond the paper's evaluation):
   what does a live 4->8 resharding cost the application?

   Eight regions, an 8-bucket partition initially owned by shards 0-3;
   mid-run, four migrations hand every odd bucket to a fresh shard 4-7
   while worker threads keep committing increments across the whole
   keyspace.  Transactions in the moving range ride the double-write
   window (cross-shard pairs to both owners), so they keep committing —
   the cost shows up as a throughput dip, not as failures.  A monitor
   samples committed transactions per fixed window; steady-state is the
   mean of the pre- and post-resharding windows.

   Gate: windows below 60% of steady-state must cover at most 20% of the
   run, and no transaction may fail to commit. *)

open Dudetm_harness.Harness
module Sched = Dudetm_sim.Sched
module Cycles = Dudetm_sim.Cycles
module Stats = Dudetm_sim.Stats
module Config = Dudetm_core.Config
module Partition = Dudetm_workloads.Partition
module Mig = Dudetm_shard.Migrate.Make (Dudetm_tm.Tinystm)
module L = Ledger

let nshards = 8

let nkeys = 256

let initial_owners = [| 0; 0; 1; 1; 2; 2; 3; 3 |]

let moves = List.init 4 (fun m -> (m, 4 + m, (2 * m) + 1))

let canonical_warm = 1_500_000 (* cycles before and after the resharding *)

let window = 150_000 (* throughput sampling window, cycles *)

(* Thread 0 is reserved for the migration driver; workers use 1..4. *)
let cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 18;
    nthreads = 5;
    vlog_capacity = 1 lsl 12;
    plog_size = 1 lsl 17;
    meta_size = 1 lsl 14;
    seed = 13;
  }

let slot_of k = 8 * k

type result = {
  g_committed : int;
  g_failed : int;
  g_cycles : int;
  g_steady_ktps : float;
  g_min_ktps : float;
  g_dip_fraction : float;  (* of all windows, below 60% of steady *)
  g_converge : int;  (* cycles from first begin to last cleanup seal *)
  g_windows : (int * float) list;  (* (end cycle, ktps) *)
  g_double_writes : int;
  g_copy_txs : int;
}

(* One full run: warm traffic, the four migrations under traffic, post
   traffic.  [warm] shapes the steady segments; workers run until the
   driver stops them, so the dip fraction is measured over a bounded,
   comparable run. *)
let run_resharding ~warm () =
  let part =
    Partition.buckets ~nshards ~lo:0L ~hi:(Int64.of_int nkeys) ~owners:initial_owners
  in
  let sh = Mig.Sh.create ~nshards cfg in
  let mig = Mig.create sh ~part ~nkeys ~slot_of in
  let committed = ref 0 in
  let failed = ref 0 in
  let stop = ref false in
  let t0 = ref 0 and t1 = ref 0 in
  let samples = ref [] in
  let nworkers = cfg.Config.nthreads - 1 in
  let cycles =
    Sched.run (fun () ->
        Mig.Sh.start sh;
        (* Disjoint key sets (key mod nworkers) keep workers conflict-free;
           the moving range still catches every worker because buckets span
           the whole residue space. *)
        let workers =
          List.init nworkers (fun i ->
              let th = i + 1 in
              Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  let i = ref 0 in
                  while not !stop do
                    let k = (th - 1) + (nworkers * (!i mod (nkeys / nworkers))) in
                    (match Mig.apply mig ~thread:th ~key:k (fun v -> Int64.add v 1L) with
                    | Some _ -> incr committed
                    | None -> incr failed);
                    incr i
                  done))
        in
        ignore
          (Sched.spawn "monitor" ~daemon:true (fun () ->
               while true do
                 Sched.advance window;
                 samples := (Sched.now (), !committed) :: !samples
               done));
        ignore
          (Sched.spawn "reshard" (fun () ->
               Sched.advance warm;
               t0 := Sched.now ();
               (* Throttled like a real resharder: small copy chunks with
                  pacing gaps, so the double-write window stays open under
                  traffic for several sampling windows. *)
               List.iter
                 (fun (src, dst, b) ->
                   Mig.begin_migration mig ~src ~dst ~blo:b ~bhi:(b + 1);
                   let fin = ref false in
                   while not !fin do
                     fin := Mig.copy_step ~chunk:2 mig ~thread:0;
                     Sched.advance 20_000
                   done;
                   Mig.flip mig;
                   let fin = ref false in
                   while not !fin do
                     fin := Mig.cleanup_step ~chunk:8 mig ~thread:0;
                     Sched.advance 10_000
                   done)
                 moves;
               t1 := Sched.now ();
               Sched.advance warm;
               stop := true));
        Sched.join ~label:"workers done" workers;
        Mig.Sh.stop sh)
  in
  (* Per-window throughput from the monitor's cumulative samples. *)
  let samples = List.rev !samples in
  let windows =
    let prev_t = ref 0 and prev_c = ref 0 in
    List.filter_map
      (fun (t, c) ->
        let dt = t - !prev_t and dc = c - !prev_c in
        prev_t := t;
        prev_c := c;
        if dt <= 0 then None else Some (t, ktps ~txs:dc ~cycles:dt))
      samples
  in
  let steady_windows =
    List.filter (fun (t, _) -> t <= !t0 || t > !t1 + window) windows
  in
  let mean l = List.fold_left (fun a (_, x) -> a +. x) 0.0 l /. float_of_int (List.length l) in
  let steady = if steady_windows = [] then 0.0 else mean steady_windows in
  let min_ktps = List.fold_left (fun a (_, x) -> min a x) infinity windows in
  let dips = List.filter (fun (_, x) -> x < 0.6 *. steady) windows in
  let stats = Mig.Sh.stats sh in
  ( mig,
    {
      g_committed = !committed;
      g_failed = !failed;
      g_cycles = cycles;
      g_steady_ktps = steady;
      g_min_ktps = (if windows = [] then 0.0 else min_ktps);
      g_dip_fraction =
        (if windows = [] then 1.0
         else float_of_int (List.length dips) /. float_of_int (List.length windows));
      g_converge = !t1 - !t0;
      g_windows = windows;
      g_double_writes = Stats.get stats "migrate_double_writes";
      g_copy_txs = Stats.get stats "migrate_copy_txs";
    } )

let run ?(scale = 1.0) led =
  let warm = max 300_000 (int_of_float (float_of_int canonical_warm *. scale)) in
  section
    (Printf.sprintf
       "Live resharding: 4->8 shards under traffic, %d keys, %d worker threads" nkeys
       (cfg.Config.nthreads - 1));
  let mig, g = run_resharding ~warm () in
  let final_owners = Partition.owners (Mig.partition mig) in
  Printf.printf "%-22s %12s %12s %12s %12s\n" "phase" "steady ktps" "min window" "dip frac"
    "converge us";
  Printf.printf "%-22s %12s %12s %11.1f%% %12.1f\n" "reshard 4->8"
    (pp_ktps g.g_steady_ktps) (pp_ktps g.g_min_ktps) (g.g_dip_fraction *. 100.0)
    (Cycles.to_us g.g_converge);
  Printf.printf
    "committed %d, failed %d, %d double-writes in the window, %d copy txs, final owners \
     %s\n"
    g.g_committed g.g_failed g.g_double_writes g.g_copy_txs
    (String.concat ";" (Array.to_list (Array.map string_of_int final_owners)));
  let scenario = "migrate/4to8" in
  L.add led ~scenario ~layer:"param"
    (L.ints "count" [ ("shards", nshards); ("keys", nkeys); ("threads", cfg.Config.nthreads - 1) ]);
  L.add led ~scenario ~layer:"bench"
    ([
       ("committed", "txs", L.Int g.g_committed); ("failed", "txs", L.Int g.g_failed);
       ("cycles", "cycles", L.Int g.g_cycles); ("steady_ktps", "ktps", L.Float g.g_steady_ktps);
       ("min_window_ktps", "ktps", L.Float g.g_min_ktps);
       ("dip_fraction", "frac", L.Float g.g_dip_fraction);
       ("converge_cycles", "cycles", L.Int g.g_converge);
       ("converge_us", "us", L.Float (Cycles.to_us g.g_converge));
     ]
    @ List.map (fun (t, k) -> (Printf.sprintf "window_ktps@%d" t, "ktps", L.Float k)) g.g_windows);
  L.add led ~scenario ~layer:"shard"
    (L.ints "count" [ ("double_writes", g.g_double_writes); ("copy_txs", g.g_copy_txs) ]);
  L.gate led ~scenario ~layer:"bench" "failed" (L.Exactly 0.0);
  L.gate led ~scenario ~layer:"bench" "dip_fraction" (L.At_most 0.20)
