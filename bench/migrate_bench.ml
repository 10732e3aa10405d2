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
   run, and no transaction may fail to commit.  Emits BENCH_migrate.json. *)

open Dudetm_harness.Harness
module Sched = Dudetm_sim.Sched
module Cycles = Dudetm_sim.Cycles
module Stats = Dudetm_sim.Stats
module Config = Dudetm_core.Config
module Partition = Dudetm_workloads.Partition
module Mig = Dudetm_shard.Migrate.Make (Dudetm_tm.Tinystm)

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

let ktps ~txs ~cycles =
  if cycles = 0 then 0.0 else float_of_int txs /. (Cycles.to_us cycles /. 1000.0)

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
        let done_workers = ref 0 in
        (* Disjoint key sets (key mod nworkers) keep workers conflict-free;
           the moving range still catches every worker because buckets span
           the whole residue space. *)
        for th = 1 to nworkers do
          ignore
            (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                 let i = ref 0 in
                 while not !stop do
                   let k = (th - 1) + (nworkers * (!i mod (nkeys / nworkers))) in
                   (match Mig.apply mig ~thread:th ~key:k (fun v -> Int64.add v 1L) with
                   | Some _ -> incr committed
                   | None -> incr failed);
                   incr i
                 done;
                 incr done_workers))
        done;
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
        Sched.wait_until ~label:"workers done" (fun () -> !done_workers = nworkers);
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

let run ?(scale = 1.0) () =
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
  let row_json (t, k) = Printf.sprintf {|    {"cycle": %d, "ktps": %.1f}|} t k in
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"migrate-reshard\",\n  \"shards\": %d,\n  \"keys\": %d,\n  \
       \"threads\": %d,\n  \"committed\": %d,\n  \"failed\": %d,\n  \"steady_ktps\": \
       %.1f,\n  \"min_window_ktps\": %.1f,\n  \"dip_fraction\": %.3f,\n  \
       \"converge_cycles\": %d,\n  \"converge_us\": %.3f,\n  \"double_writes\": %d,\n  \
       \"copy_txs\": %d,\n  \"windows\": [\n%s\n  ]\n}\n"
      nshards nkeys
      (cfg.Config.nthreads - 1)
      g.g_committed g.g_failed g.g_steady_ktps g.g_min_ktps g.g_dip_fraction g.g_converge
      (Cycles.to_us g.g_converge)
      g.g_double_writes g.g_copy_txs
      (String.concat ",\n" (List.map row_json g.g_windows))
  in
  write_artifact "BENCH_migrate.json" json;
  let deep_dip = g.g_min_ktps < 0.6 *. g.g_steady_ktps in
  if g.g_failed > 0 then begin
    Printf.printf "MIGRATION COMMIT FAILURES: %d transactions failed during resharding\n"
      g.g_failed;
    exit 1
  end
  else if g.g_dip_fraction > 0.20 then begin
    Printf.printf
      "MIGRATION DIP REGRESSION: throughput below 60%% of steady-state for %.1f%% of \
       the run (> 20%%)\n"
      (g.g_dip_fraction *. 100.0);
    exit 1
  end
  else
    Printf.printf
      "resharding dip check: %s60%% dips cover %.1f%% of the run (<= 20%%), zero failed \
       commits\n"
      (if deep_dip then "transient " else "no ")
      (g.g_dip_fraction *. 100.0)

let tiny () = ignore (run_resharding ~warm:100_000 ())
