(* Read-only snapshot fast path: what do lock-free, log-free, persist-free
   reads buy a read-mostly workload?

   A YCSB-C-shaped 95/5 read/update mix runs over 1 shard and 8 shards,
   2x2: read transactions on the ordinary write path vs the snapshot fast
   path, and with volatile vs crash-safe read guarantees.  The write-path
   recipe for a crash-safe read — all an application had before
   [atomically_ro ~durable:true] — is a read transaction followed by a
   durability wait for the shard's watermark to cover the clock value it
   observed; the durable snapshot gets the same guarantee by pinning its
   epoch *below* the watermark instead, so it never waits for the persist
   pipeline in steady state.

   Gates (per shard count): durable snapshot reads >= 5x the write-path
   durable-read recipe; volatile snapshot reads no slower than write-path
   reads; and a post-drain RO burst must move zero redo-log entries, zero
   persist-daemon records/bytes, zero engine transaction IDs and zero
   device-persisted bytes — the snapshot path is invisible to the
   pipeline. *)

open Dudetm_harness.Harness
module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)
module L = Ledger

let nslots = 4096 (* per shard *)

let slot i = 64 + (8 * i)

let reads_per_tx = 8

let writes_per_tx = 8

let nreaders = 8

(* Background updaters are open-loop (fixed pacing), so every leg faces the
   same durability pressure: a closed-loop mix would let durable-read waits
   suppress the write rate that causes the waits and measure the resulting
   equilibrium instead of the read path. *)
let nwriters = 4

let write_pace = 600 (* extra cycles between one writer's update txs *)

let canonical_run = 1_500_000 (* measured cycles per leg *)

let ro_burst_txs = 200

(* PCM-class persist latency with write combining: the regime the paper
   targets, and the one where the commit-to-durable lag that a write-path
   durable read must absorb is real rather than negligible. *)
let cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 18;
    nthreads = nreaders + nwriters;
    pmem = Dudetm_nvm.Pmem_config.pcm;
    vlog_capacity = 1 lsl 10;
    plog_size = 1 lsl 16;
    meta_size = 1 lsl 13;
    persist = Config.Combined { group = 8; compress = false };
    seed = 17;
  }

type leg = {
  l_read_txs : int;
  l_write_txs : int;
  l_read_ktps : float;
  l_aborts : int;
  l_snapshot_retries : int;
  l_burst : (string * string * int) list;  (* (metric, layer, delta) of the RO burst *)
}

(* One read transaction's body: [reads_per_tx] random slots of shard [s]. *)
let reads rng s tx =
  for _ = 1 to reads_per_tx do
    ignore (Sh.read tx ~shard:s (slot (Rng.int rng nslots)))
  done

(* Sum a per-shard quantity across every shard. *)
let over_shards ~nshards f = List.fold_left (fun acc s -> acc + f s) 0 (List.init nshards Fun.id)

let engine_stat sh ~nshards key =
  over_shards ~nshards (fun s -> Stats.get (Sh.Engine.stats (Sh.engine sh s)) key)

let tm_stat sh ~nshards key =
  over_shards ~nshards (fun s ->
      Stats.get (Dudetm_tm.Tinystm.stats (Sh.Engine.tm (Sh.engine sh s))) key)

(* The post-drain burst: [n] snapshot transactions in each mode must leave
   every pipeline-side counter exactly where it was.  Returns how far each
   counter moved. *)
let ro_burst sh ~nshards ~n =
  (* Let the device bandwidth queues finish accounting bytes that were
     issued before the burst: [persisted_write_bytes] counts completions,
     which lag issue time. *)
  Sched.advance 2_000_000;
  let counters () =
    List.map
      (fun k -> (k, "engine", engine_stat sh ~nshards k))
      [ "txs"; "log_entries"; "flush_records"; "flush_payload_bytes"; "ro_txs" ]
    @ [
        ( "persisted_bytes",
          "nvm",
          over_shards ~nshards (fun s -> Nvm.persisted_write_bytes (Sh.nvm sh s)) );
      ]
  in
  let before = counters () in
  let rng = Rng.create 99 in
  for i = 0 to n - 1 do
    let s = Rng.int rng nshards in
    match Sh.atomically_ro ~durable:(i land 1 = 1) sh ~thread:0 ~shard:s (reads rng s) with
    | Some _ -> ()
    | None -> failwith "snapshot burst aborted"
  done;
  List.map2 (fun (k, layer, v0) (_, _, v1) -> (k, layer, v1 - v0)) before (counters ())

(* One leg: [nreaders] closed-loop reader threads via [mode] for
   [run_cycles], against the fixed-rate background update stream, then
   drain.  [durable] selects the crash-safe read guarantee: on the write
   path, a post-transaction wait for the shard watermark to cover the
   observed clock; on the snapshot path, the pinned epoch. *)
let run_leg ~nshards ~mode ~durable ~run_cycles ~check_invisible () =
  let sh = Sh.create ~nshards cfg in
  let read_txs = ref 0 and write_txs = ref 0 in
  let stop_writers = ref false in
  let burst = ref [] in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         let writers =
           List.init nwriters (fun w ->
               let th = nreaders + w in
               Sched.spawn (Printf.sprintf "u%d" w) (fun () ->
                   let rng = Rng.create (cfg.Config.seed + 500 + w) in
                   while not !stop_writers do
                     let s = Rng.int rng nshards in
                     (match
                        Sh.atomically sh ~thread:th ~shards:[ s ] (fun tx ->
                            for _ = 1 to writes_per_tx do
                              Sh.write tx ~shard:s
                                (slot (Rng.int rng nslots))
                                (Rng.next_int64 rng)
                            done)
                      with
                     | Some _ -> incr write_txs
                     | None -> ());
                     Sched.advance write_pace
                   done))
         in
         let readers =
           List.init nreaders (fun th ->
               Sched.spawn (Printf.sprintf "r%d" th) (fun () ->
                   let rng = Rng.create (cfg.Config.seed + 100 + th) in
                   while Sched.now () < run_cycles do
                     let s = Rng.int rng nshards in
                     if mode = "ro" then (
                       match Sh.atomically_ro ~durable sh ~thread:th ~shard:s (reads rng s) with
                       | Some _ -> incr read_txs
                       | None -> ())
                     else begin
                       (match Sh.atomically sh ~thread:th ~shards:[ s ] (reads rng s) with
                       | Some _ -> incr read_txs
                       | None -> ());
                       if durable then
                         (* The pre-snapshot crash-safe read recipe: wait for
                            the watermark to cover everything the read could
                            have observed. *)
                         Sh.wait_durable sh
                           (Sh.Ack_local
                              { shard = s; tid = Sh.Engine.last_tid (Sh.engine sh s) })
                     end
                   done))
         in
         Sched.join ~label:"snapshot bench readers" readers;
         stop_writers := true;
         Sched.join ~label:"snapshot bench writers" writers;
         Sh.drain sh;
         Sh.stop sh;
         (* Daemons are stopped: any device byte the burst persists is the
            snapshot path's own doing. *)
         if check_invisible then burst := ro_burst sh ~nshards ~n:ro_burst_txs));
  {
    l_read_txs = !read_txs;
    l_write_txs = !write_txs;
    l_read_ktps = ktps ~txs:!read_txs ~cycles:run_cycles;
    l_aborts = tm_stat sh ~nshards "aborts";
    l_snapshot_retries = tm_stat sh ~nshards "snapshot_retries";
    l_burst = !burst;
  }

let speedup num den = if den.l_read_ktps <= 0.0 then 0.0 else num.l_read_ktps /. den.l_read_ktps

let run ?(scale = 1.0) led =
  let run_cycles = max 300_000 (int_of_float (float_of_int canonical_run *. scale)) in
  section
    (Printf.sprintf
       "Snapshot fast path: read-mostly mix, %d reads/tx, %d readers + %d background \
        updaters, volatile + crash-safe reads"
       reads_per_tx nreaders nwriters);
  L.add led ~scenario:"snapshot" ~layer:"param"
    (L.ints "count"
       [
         ("reads_per_tx", reads_per_tx); ("writes_per_tx", writes_per_tx); ("readers", nreaders);
         ("background_updaters", nwriters);
       ]
    @ [ ("run_cycles", "cycles", L.Int run_cycles) ]);
  List.iter
    (fun nshards ->
      let leg ~mode ~durable ~check_invisible =
        run_leg ~nshards ~mode ~durable ~run_cycles ~check_invisible ()
      in
      let rw_v = leg ~mode:"rw" ~durable:false ~check_invisible:false in
      let rw_d = leg ~mode:"rw" ~durable:true ~check_invisible:false in
      let ro_v = leg ~mode:"ro" ~durable:false ~check_invisible:false in
      let ro_d = leg ~mode:"ro" ~durable:true ~check_invisible:true in
      let scenario = Printf.sprintf "snapshot/n=%d" nshards in
      Printf.printf "%d shard%s:\n" nshards (if nshards = 1 then "" else "s");
      Printf.printf "  %-28s %12s %10s %9s %9s\n" "read path" "read ktps" "read txs"
        "aborts" "ro-retry";
      List.iter
        (fun (name, leg, l) ->
          Printf.printf "  %-28s %12s %10d %9d %9d\n" name (pp_ktps l.l_read_ktps)
            l.l_read_txs l.l_aborts l.l_snapshot_retries;
          let scenario = scenario ^ "/" ^ leg in
          L.add led ~scenario ~layer:"bench"
            [
              ("read_ktps", "ktps", L.Float l.l_read_ktps);
              ("read_txs", "txs", L.Int l.l_read_txs); ("write_txs", "txs", L.Int l.l_write_txs);
            ];
          L.add led ~scenario ~layer:"tm"
            (L.ints "count" [ ("aborts", l.l_aborts); ("snapshot_retries", l.l_snapshot_retries) ]))
        [
          ("write path, volatile", "rw-volatile", rw_v);
          ("write path + durable wait", "rw-durable", rw_d);
          ("snapshot, volatile", "ro-volatile", ro_v);
          ("snapshot, durable pin", "ro-durable", ro_d);
        ];
      let sv = speedup ro_v rw_v and sd = speedup ro_d rw_d in
      Printf.printf "  volatile speedup %.2fx, crash-safe-read speedup %.2fx\n" sv sd;
      L.add led ~scenario ~layer:"bench"
        [ ("volatile_speedup", "x", L.Float sv); ("durable_speedup", "x", L.Float sd) ];
      L.gate led ~scenario ~layer:"bench" "durable_speedup" (L.At_least 5.0);
      L.gate led ~scenario ~layer:"bench" "volatile_speedup" (L.At_least 1.0);
      (* The burst runs [ro_burst_txs] snapshot transactions after the
         drain: only [ro_txs] may move, by exactly that many. *)
      let scenario = scenario ^ "/ro-burst" in
      List.iter
        (fun (metric, layer, delta) ->
          L.add led ~scenario ~layer [ (metric, "delta", L.Int delta) ];
          L.gate led ~scenario ~layer metric
            (L.Exactly (if metric = "ro_txs" then float_of_int ro_burst_txs else 0.0)))
        ro_d.l_burst)
    [ 1; 8 ]
