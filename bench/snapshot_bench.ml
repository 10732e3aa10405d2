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
   pipeline.  Emits BENCH_snapshot.json. *)

open Dudetm_harness.Harness
module Sched = Dudetm_sim.Sched
module Cycles = Dudetm_sim.Cycles
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)

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
  l_mode : string;  (* "rw" | "ro" *)
  l_durable : bool;
  l_read_txs : int;
  l_write_txs : int;
  l_read_ktps : float;
  l_aborts : int;
  l_snapshot_retries : int;
}

(* Sum an engine counter across every shard. *)
let engine_stat sh ~nshards key =
  let total = ref 0 in
  for s = 0 to nshards - 1 do
    total := !total + Stats.get (Sh.Engine.stats (Sh.engine sh s)) key
  done;
  !total

let tm_stat sh ~nshards key =
  let total = ref 0 in
  for s = 0 to nshards - 1 do
    total :=
      !total + Stats.get (Dudetm_tm.Tinystm.stats (Sh.Engine.tm (Sh.engine sh s))) key
  done;
  !total

let device_bytes sh ~nshards =
  let total = ref 0 in
  for s = 0 to nshards - 1 do
    total := !total + Nvm.persisted_write_bytes (Sh.nvm sh s)
  done;
  !total

(* The post-drain burst: [n] snapshot transactions in each mode must leave
   every pipeline-side counter exactly where it was. *)
let assert_ro_invisible sh ~nshards ~n =
  (* Let the device bandwidth queues finish accounting bytes that were
     issued before the burst: [persisted_write_bytes] counts completions,
     which lag issue time. *)
  Sched.advance 2_000_000;
  let keys = [ "txs"; "log_entries"; "flush_records"; "flush_payload_bytes" ] in
  let before = List.map (fun k -> (k, engine_stat sh ~nshards k)) keys in
  let ro_before = engine_stat sh ~nshards "ro_txs" in
  let dev_before = device_bytes sh ~nshards in
  let rng = Rng.create 99 in
  for i = 0 to n - 1 do
    let s = Rng.int rng nshards in
    match
      Sh.atomically_ro ~durable:(i land 1 = 1) sh ~thread:0 ~shard:s (fun tx ->
          for _ = 1 to reads_per_tx do
            ignore (Sh.read tx ~shard:s (slot (Rng.int rng nslots)))
          done)
    with
    | Some _ -> ()
    | None -> failwith "snapshot burst aborted"
  done;
  List.iter
    (fun (k, v0) ->
      let v1 = engine_stat sh ~nshards k in
      if v1 <> v0 then begin
        Printf.printf "SNAPSHOT LEAK: %d RO transactions moved %s by %d\n" n k (v1 - v0);
        exit 1
      end)
    before;
  let dev_after = device_bytes sh ~nshards in
  if dev_after <> dev_before then begin
    Printf.printf "SNAPSHOT LEAK: %d RO transactions persisted %d device bytes\n" n
      (dev_after - dev_before);
    exit 1
  end;
  if engine_stat sh ~nshards "ro_txs" - ro_before <> n then begin
    Printf.printf "SNAPSHOT MISCOUNT: ro_txs did not advance by %d\n" n;
    exit 1
  end

(* One leg: [nreaders] closed-loop reader threads via [mode] for
   [run_cycles], against the fixed-rate background update stream, then
   drain.  [durable] selects the crash-safe read guarantee: on the write
   path, a post-transaction wait for the shard watermark to cover the
   observed clock; on the snapshot path, the pinned epoch. *)
let run_leg ~nshards ~mode ~durable ~run_cycles ~check_invisible () =
  let sh = Sh.create ~nshards cfg in
  let read_txs = ref 0 and write_txs = ref 0 in
  let stop_writers = ref false in
  let done_workers = ref 0 in
  let nworkers = nreaders + nwriters in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         for w = 0 to nwriters - 1 do
           let th = nreaders + w in
           ignore
             (Sched.spawn (Printf.sprintf "u%d" w) (fun () ->
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
                  done;
                  incr done_workers))
         done;
         for th = 0 to nreaders - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "r%d" th) (fun () ->
                  let rng = Rng.create (cfg.Config.seed + 100 + th) in
                  while Sched.now () < run_cycles do
                    let s = Rng.int rng nshards in
                    if mode = "ro" then (
                      match
                        Sh.atomically_ro ~durable sh ~thread:th ~shard:s (fun tx ->
                            for _ = 1 to reads_per_tx do
                              ignore (Sh.read tx ~shard:s (slot (Rng.int rng nslots)))
                            done)
                      with
                      | Some _ -> incr read_txs
                      | None -> ())
                    else begin
                      (match
                         Sh.atomically sh ~thread:th ~shards:[ s ] (fun tx ->
                             for _ = 1 to reads_per_tx do
                               ignore (Sh.read tx ~shard:s (slot (Rng.int rng nslots)))
                             done)
                       with
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
                  done;
                  incr done_workers))
         done;
         Sched.wait_until ~label:"snapshot bench readers" (fun () ->
             !done_workers >= nreaders);
         stop_writers := true;
         Sched.wait_until ~label:"snapshot bench writers" (fun () ->
             !done_workers = nworkers);
         Sh.drain sh;
         Sh.stop sh;
         (* Daemons are stopped: any device byte the burst persists is the
            snapshot path's own doing. *)
         if check_invisible then assert_ro_invisible sh ~nshards ~n:200));
  {
    l_mode = mode;
    l_durable = durable;
    l_read_txs = !read_txs;
    l_write_txs = !write_txs;
    l_read_ktps =
      (if run_cycles = 0 then 0.0
       else float_of_int !read_txs /. (Cycles.to_us run_cycles /. 1000.0));
    l_aborts = tm_stat sh ~nshards "aborts";
    l_snapshot_retries = tm_stat sh ~nshards "snapshot_retries";
  }

let speedup num den = if den.l_read_ktps <= 0.0 then 0.0 else num.l_read_ktps /. den.l_read_ktps

let run ?(scale = 1.0) () =
  let run_cycles = max 300_000 (int_of_float (float_of_int canonical_run *. scale)) in
  section
    (Printf.sprintf
       "Snapshot fast path: read-mostly mix, %d reads/tx, %d readers + %d background \
        updaters, volatile + crash-safe reads"
       reads_per_tx nreaders nwriters);
  let legs_json = ref [] in
  let gate_failures = ref [] in
  List.iter
    (fun nshards ->
      let leg ~mode ~durable ~check_invisible =
        run_leg ~nshards ~mode ~durable ~run_cycles ~check_invisible ()
      in
      let rw_v = leg ~mode:"rw" ~durable:false ~check_invisible:false in
      let rw_d = leg ~mode:"rw" ~durable:true ~check_invisible:false in
      let ro_v = leg ~mode:"ro" ~durable:false ~check_invisible:false in
      let ro_d = leg ~mode:"ro" ~durable:true ~check_invisible:true in
      Printf.printf "%d shard%s:\n" nshards (if nshards = 1 then "" else "s");
      Printf.printf "  %-28s %12s %10s %9s %9s\n" "read path" "read ktps" "read txs"
        "aborts" "ro-retry";
      List.iter
        (fun (name, l) ->
          Printf.printf "  %-28s %12s %10d %9d %9d\n" name (pp_ktps l.l_read_ktps)
            l.l_read_txs l.l_aborts l.l_snapshot_retries)
        [
          ("write path, volatile", rw_v);
          ("write path + durable wait", rw_d);
          ("snapshot, volatile", ro_v);
          ("snapshot, durable pin", ro_d);
        ];
      let sv = speedup ro_v rw_v and sd = speedup ro_d rw_d in
      Printf.printf "  volatile speedup %.2fx, crash-safe-read speedup %.2fx\n" sv sd;
      if sd < 5.0 then
        gate_failures :=
          Printf.sprintf
            "%d shards: crash-safe snapshot reads only %.2fx the write-path recipe (< 5x)"
            nshards sd
          :: !gate_failures;
      if sv < 1.0 then
        gate_failures :=
          Printf.sprintf "%d shards: volatile snapshot reads regressed (%.2fx < 1x)"
            nshards sv
          :: !gate_failures;
      let leg_json (l : leg) =
        Printf.sprintf
          {|    {"shards": %d, "path": "%s", "durable": %b, "read_ktps": %.1f, "read_txs": %d, "write_txs": %d, "tm_aborts": %d, "snapshot_retries": %d}|}
          nshards l.l_mode l.l_durable l.l_read_ktps l.l_read_txs l.l_write_txs l.l_aborts
          l.l_snapshot_retries
      in
      legs_json :=
        !legs_json
        @ List.map leg_json [ rw_v; rw_d; ro_v; ro_d ]
        @ [
            Printf.sprintf
              {|    {"shards": %d, "volatile_speedup": %.2f, "durable_speedup": %.2f}|}
              nshards sv sd;
          ])
    [ 1; 8 ];
  let json =
    Printf.sprintf
      "{\n  \"experiment\": \"snapshot-ro\",\n  \"reads_per_tx\": %d,\n  \
       \"writes_per_tx\": %d,\n  \"readers\": %d,\n  \"background_updaters\": %d,\n  \
       \"run_cycles\": %d,\n  \"gate\": \"durable_speedup >= 5.0 and volatile_speedup \
       >= 1.0 and RO moves no pipeline counters\",\n  \"legs\": [\n%s\n  ]\n}\n"
      reads_per_tx writes_per_tx nreaders nwriters run_cycles
      (String.concat ",\n" !legs_json)
  in
  write_artifact "BENCH_snapshot.json" json;
  match !gate_failures with
  | [] ->
    Printf.printf
      "snapshot gate: crash-safe reads >= 5x, volatile reads >= 1x, RO invisible to the \
       pipeline\n"
  | fs ->
    List.iter (fun f -> Printf.printf "SNAPSHOT GATE FAILURE: %s\n" f) fs;
    exit 1

let tiny () =
  ignore (run_leg ~nshards:1 ~mode:"ro" ~durable:false ~run_cycles:120_000 ~check_invisible:false ())
