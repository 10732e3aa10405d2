(* The repository benchmark.  From the repository root:

     dune exec -- ./perfbench/main.exe \
       --workload ingest-1s --seed 1 --seconds 10 --trace 0

   Every workload runs open loop at a fixed offered rate (a constant below,
   never re-derived from a run).  One run measures the fixed-rate leg on
   [nsub] sub-seeds derived from [--seed] and reports the simulated
   metrics over their pooled samples, so that one schedule's tail does not
   decide a p99.  Simulated metrics are exact for a seed; host metrics (setup_s,
   host_us_per_op, peak_heap_mb) are CPU time and memory of the process
   that ran a leg.
   The legs repeat, cycling through the sub-seeds, each in a child process
   from a fresh set-up, until [--seconds] have gone and every sub-seed ran once
   and the first twice; host metrics are medians over the repetitions,
   and every repetition must reproduce its sub-seed's simulated metrics
   bit for bit.  [--trace 1] adds one traced leg whose simulated metrics
   must equal the untraced ones, and reports the per-layer metrics instead
   of the end-to-end ones.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  The command exits
   non-zero only when an output check fails, never on a performance
   number. *)

module Cycles = Dudetm_sim.Cycles

type workload = {
  name : string;
  mtps : float;  (** fixed offered rate, million requests per simulated second *)
  p99_limit_us : float;  (** write-ack p99 limit of the SLO search *)
  reqs : int;  (** requests per session in one leg *)
  run : seed:int -> mtps:float -> reqs:int -> traced:bool -> cut:bool -> Wl.t;
}

let serve_spec ~nshards ~keys_per_tenant ~theta ~ro_permille ~frames ~heap_size =
  {
    Serve_wl.nshards;
    ntenants = 4;
    sessions = 4;
    slots = 8;
    keys_per_tenant;
    theta;
    ro_permille;
    frames;
    heap_size;
  }

(* The fixed rates sit at about 0.6x the goodput each workload saturates
   at when offered 30 MTPS or more at seed 1: ingest-1s 4.28, lookup-8s
   58, transfer-4s 8.3, quorum-k3 3.57 MTPS.  Each p99 limit is a few
   times the write-ack p99 at the fixed rate. *)
let workloads =
  [
    {
      name = "ingest-1s";
      mtps = 2.6;
      p99_limit_us = 20.0;
      reqs = 2500;
      run =
        Serve_wl.run
          (serve_spec ~nshards:1 ~keys_per_tenant:1024 ~theta:0.99 ~ro_permille:100
             ~frames:None ~heap_size:(1 lsl 18));
    };
    {
      name = "lookup-8s";
      mtps = 32.0;
      p99_limit_us = 20.0;
      reqs = 2500;
      run =
        Serve_wl.run
          (serve_spec ~nshards:8 ~keys_per_tenant:16384 ~theta:0.6 ~ro_permille:950
             ~frames:(Some 16) ~heap_size:(1 lsl 20));
    };
    { name = "transfer-4s"; mtps = 5.0; p99_limit_us = 20.0; reqs = 3000; run = Transfer_wl.run };
    { name = "quorum-k3"; mtps = 2.1; p99_limit_us = 40.0; reqs = 2000; run = Quorum_wl.run };
  ]

(* Sub-seeds per run. *)
let nsub = 3

let subseed seed i = (nsub * seed) + i

(* ---------------------------------------------------------------- *)

let us c = Cycles.to_us c

let p s q = us (Samples.percentile s q)

let goodput (r : Wl.t) =
  float_of_int (Leg.completed r.leg) /. Cycles.to_seconds (max 1 (Leg.elapsed r.leg)) /. 1e6

(* The simulated end-to-end metrics of one leg: exact for a seed. *)
let simulated (r : Wl.t) =
  [
    ("goodput_mtps", goodput r, "MTPS");
    ("write_ack_p50_us", p r.leg.writes 50.0, "us");
    ("write_ack_mean_us", us 1 *. Samples.mean r.leg.writes, "us");
    ("write_ack_p99_us", p r.leg.writes 99.0, "us");
    ("read_p50_us", p r.leg.reads 50.0, "us");
    ("read_mean_us", us 1 *. Samples.mean r.leg.reads, "us");
    ("read_p99_us", p r.leg.reads 99.0, "us");
    ("nvm_write_amp", Wl.ratio r.nvm_bytes (max 1 r.user_bytes), "x");
    ("recovery_us", us r.recovery, "us");
  ]

(* The sub-seeds' legs as one: their samples pooled, their simulated
   times and byte counts summed. *)
let pooled (legs : Wl.t array) : Wl.t =
  let l = Array.to_list legs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 l in
  let samples f = Samples.concat (List.map (fun (r : Wl.t) -> f r.leg) l) in
  {
    (legs.(0)) with
    leg =
      {
        (Leg.create ()) with
        writes = samples (fun g -> g.Leg.writes);
        reads = samples (fun g -> g.Leg.reads);
        lag = samples (fun g -> g.Leg.lag);
        t_end = sum (fun r -> Leg.elapsed r.leg);
      };
    nvm_bytes = sum (fun r -> r.nvm_bytes);
    user_bytes = sum (fun r -> r.user_bytes);
  }

(* Printed but left out of the result object: on some workloads each is
   the same on nearly every seed (an unqueued fast path, or a recovery
   whose cost is a fixed number of persists), so it carries no signal a
   bound could track; the means stand in for the percentiles. *)
let printed_only = [ "write_ack_p50_us"; "read_p50_us"; "read_p99_us"; "recovery_us" ]

let digest (r : Wl.t) =
  let counts =
    Printf.sprintf "%d %d %d %d %d %d" (Samples.count r.leg.writes) (Samples.count r.leg.reads)
      r.leg.shed r.leg.aborted r.leg.stalls (Leg.elapsed r.leg)
  in
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (counts :: List.map (fun (n, v, _) -> Printf.sprintf "%s=%h" n v) (simulated r))))

(* The highest offered rate whose write-ack p99 stays within the limit with
   nothing failed; latency counts from the due time, so a growing backlog
   fails the limit too.  Legs at rising multiples
   of the fixed rate find a passing and a failing rate; three bisection
   legs narrow them; when the failing leg failed on p99 alone, p99 is
   interpolated linearly between the two. *)
let slo_search w ~seed =
  let leg rate =
    let r = w.run ~seed ~mtps:rate ~reqs:(w.reqs / 2) ~traced:false ~cut:false in
    let p99 = p r.leg.writes 99.0 in
    let clean = r.leg.shed + r.leg.aborted = 0 in
    Printf.printf "slo leg  %7.3f MTPS offered: write p99 %8.2f us, failed %d, stalls %d\n%!"
      rate p99 (r.leg.shed + r.leg.aborted) r.leg.stalls;
    (rate, p99, clean, clean && p99 <= w.p99_limit_us)
  in
  let rec bracket lo = function
    | [] -> (lo, None)
    | m :: rest ->
      let ((_, _, _, pass) as l) = leg (w.mtps *. m) in
      if pass then bracket l rest else (lo, Some l)
  in
  let rec bisect lo hi n =
    let r0, _, _, _ = lo and r1, _, _, _ = hi in
    if n = 0 then (lo, hi)
    else
      let ((_, _, _, pass) as m) = leg ((r0 +. r1) /. 2.0) in
      if pass then bisect m hi (n - 1) else bisect lo m (n - 1)
  in
  match bracket (0.0, 0.0, true, true) [ 1.0; 1.5; 2.0; 3.0 ] with
  | (r0, _, _, _), None -> r0
  | lo, Some hi ->
    let (r0, p0, _, _), (r1, p1, clean1, _) = bisect lo hi 3 in
    if (not clean1) || p1 <= p0 then r0
    else r0 +. ((r1 -. r0) *. ((w.p99_limit_us -. p0) /. (p1 -. p0)))

(* Every per-layer metric with its unit, as BENCHMARK.json lists them.  A
   workload reports each one; a layer it does not exercise reads 0. *)
let per_layer =
  [
    ("serve.gen_lag_p99_us", "us");
    ("serve.window_stalls", "count");
    ("serve.queue_wait_p99_us", "us");
    ("serve.ack_wait_p99_us", "us");
    ("serve.shed", "count");
    ("serve.gate_trips", "count");
    ("serve.depth_hwm", "count");
    ("serve.self_us_per_op", "us");
    ("tm.commit_ratio", "ratio");
    ("tm.backoff_cycles_per_commit", "cycles");
    ("tm.body_p50_us", "us");
    ("tm.ro_restarts_per_read", "ratio");
    ("engine.txs_per_record", "ratio");
    ("engine.persist_batch_mean_us", "us");
    ("engine.persist_flush_mean_us", "us");
    ("engine.persist_combine_mean_us", "us");
    ("engine.pipe_overlap_frac", "ratio");
    ("engine.deadline_flush_frac", "ratio");
    ("engine.bp_throttle_cycles", "cycles");
    ("engine.plog_hwm_bytes", "bytes");
    ("engine.vlog_hwm_entries", "count");
    ("engine.reproduce_replay_mean_us", "us");
    ("engine.reproduce_lag_txs", "count");
    ("engine.recovery_replayed_txs", "count");
    ("log.entries_per_write", "ratio");
    ("log.combine_ratio", "ratio");
    ("log.payload_bytes_per_entry", "bytes");
    ("shadow.faults_per_kop", "count");
    ("shadow.evictions_per_kop", "count");
    ("shadow.swapin_waits", "count");
    ("nvm.persists_per_write", "ratio");
    ("nvm.log_bytes_per_write", "bytes");
    ("nvm.home_bytes_per_write", "bytes");
    ("nvm.channel_util_max", "ratio");
    ("shard.cross_frac", "ratio");
    ("shard.cross_commit_p99_us", "us");
    ("shard.single_commit_p50_us", "us");
    ("shard.frontier_wait_p99_us", "us");
    ("shard.local_wait_p50_us", "us");
    ("shard.discarded_fragments", "count");
    ("shard.self_us_per_op", "us");
    ("replica.quorum_wait_p50_us", "us");
    ("replica.quorum_wait_p99_us", "us");
    ("replica.txs_per_batch", "ratio");
    ("replica.link_bytes_per_write", "bytes");
    ("replica.retransmits", "count");
    ("replica.truncated_txs", "count");
    ("replica.self_us_per_op", "us");
    ("host.tm_write_tx_ns", "ns");
    ("host.tm_ro_tx_ns", "ns");
    ("host.vlog_append_ns", "ns");
    ("host.combine_seal_ns_per_entry", "ns");
    ("host.encode_payload_ns_per_entry", "ns");
    ("host.crc32_ns_per_kb", "ns");
    ("host.nvm_persist_ns_per_line", "ns");
    ("host.wire_encode_ns_per_kb", "ns");
    ("host.sched_switch_ns", "ns");
    ("host.trace_overhead", "x");
    ("trace.dropped", "count");
  ]

(* Host CPU seconds of a fixed loop that allocates and scatters stores
   over 512 KB, as the simulator does.  Host costs are scaled to a machine
   on which it takes [reference_nominal_s]: on a shared machine the speed
   of the whole process drifts by tens of percent between runs, and the
   loop, timed around each leg, drifts with it. *)
let reference_s () =
  let t0 = Sys.time () in
  let a = Array.make (1 lsl 16) 0 and h = Hashtbl.create 4096 and x = ref 1 in
  for i = 1 to 3_000_000 do
    x := ((!x * 1103515245) + 12345) land 0xFFFF;
    a.(!x) <- a.(!x) + i;
    if i land 7 = 0 then Hashtbl.replace h (!x land 0xFFF) (Some i)
  done;
  ignore (Sys.opaque_identity (a, h));
  Sys.time () -. t0

let reference_nominal_s = 0.02

(* Runs [f] in a child process, between two timings of the reference
   loop, and returns its result with its host CPU seconds scaled: every
   repetition then also starts from the same small heap, so garbage a
   previous repetition left behind does not slow the next one's
   collector. *)
let in_child (f : unit -> Wl.t) : Wl.t =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let before = reference_s () in
    (match f () with
    | r ->
      let scale = 2.0 *. reference_nominal_s /. (before +. reference_s ()) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc
        ({ r with setup_s = r.setup_s *. scale; leg_s = r.leg_s *. scale } : Wl.t)
        [];
      close_out oc
    | exception e -> prerr_endline ("leg failed: " ^ Printexc.to_string e));
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = try Some (Marshal.from_channel ic) with End_of_file -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match r with Some r -> r | None -> exit 2)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of repetitions");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let seed = !seed and traced = !trace = 1 in
  let failures = ref [] in
  let fail s = if not (List.mem s !failures) then failures := s :: !failures in
  let fp = Calibration.fingerprint () in
  Printf.printf "calibration %s\n%!" fp;
  if fp <> Calibration.recorded then
    fail (Printf.sprintf "calibration fingerprint %s, recorded %s" fp Calibration.recorded);
  (* Fixed-rate repetitions: repetition i runs sub-seed i mod nsub. *)
  let t0 = Unix.gettimeofday () in
  let rec reps i acc =
    let s = subseed seed (i mod nsub) in
    let r = in_child (fun () -> w.run ~seed:s ~mtps:w.mtps ~reqs:w.reqs ~traced:false ~cut:true) in
    Printf.printf "repetition %d (seed %d): setup %.4f s, leg %.3f host us/op\n%!" (i + 1) s
      r.setup_s (r.leg_s *. 1e6 /. float_of_int (max 1 (Leg.completed r.leg)));
    let acc = r :: acc in
    if i < nsub || Unix.gettimeofday () -. t0 < float_of_int !seconds then reps (i + 1) acc
    else Array.of_list (List.rev acc)
  in
  let runs = reps 0 [] in
  let legs = Array.sub runs 0 nsub in
  Array.iter (fun (r : Wl.t) -> List.iter fail r.failures) runs;
  let digests = Array.map digest runs in
  Array.iteri
    (fun i d ->
      if d <> digests.(i mod nsub) then fail "same-seed repetitions gave different simulated metrics")
    digests;
  if digests.(0) = digests.(1) then fail "two seeds gave the same schedule";
  Printf.printf "%d repetitions, simulated digests %s\n%!" (Array.length runs)
    (String.concat " " (Array.to_list (Array.sub digests 0 nsub)));
  Array.iteri
    (fun i (r : Wl.t) ->
      let leg = r.leg in
      Printf.printf "generator, seed %d: lag p99 %.3f us, %d window stalls of %d requests%s\n"
        (subseed seed i) (p leg.lag 99.0) leg.stalls leg.submitted
        (if leg.stalls * 100 > leg.submitted then
           " -- BEHIND SCHEDULE: this leg measures the generator"
         else ""))
    legs;
  let total f = Array.fold_left (fun acc (r : Wl.t) -> acc + f r.leg) 0 legs in
  let attempted = total (fun l -> l.Leg.submitted) in
  let failed = total (fun l -> l.Leg.shed + l.Leg.aborted) in
  let median f a = Samples.median_f (Array.to_list (Array.map f a)) in
  let ops (r : Wl.t) = float_of_int (max 1 (Leg.completed r.leg)) in
  let host_us = median (fun (r : Wl.t) -> r.leg_s *. 1e6 /. ops r) runs in
  let metrics =
    if not traced then begin
      let slo = slo_search w ~seed:(subseed seed 0) in
      [
        ("setup_s", median (fun (r : Wl.t) -> r.setup_s) runs, "s"); ("slo_mtps", slo, "MTPS");
      ]
      @ simulated (pooled legs)
      @ [
          ("host_us_per_op", host_us, "us");
          ("alloc_words_per_op", median (fun (r : Wl.t) -> r.alloc_words /. ops r) legs, "words");
          ("peak_heap_mb", float_of_int (runs.(0).peak_words * 8) /. 1e6, "MB");
        ]
    end
    else begin
      let tr =
        in_child (fun () ->
            w.run ~seed:(subseed seed 0) ~mtps:w.mtps ~reqs:w.reqs ~traced:true ~cut:true)
      in
      List.iter fail tr.failures;
      if digest tr <> digests.(0) then
        fail "the traced run's simulated metrics differ from the untraced";
      let traced_us = tr.leg_s *. 1e6 /. ops tr in
      let got =
        tr.layers @ Host.metrics () @ [ ("host.trace_overhead", traced_us /. host_us) ]
      in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n per_layer) then fail ("per-layer metric not listed: " ^ n))
        got;
      List.map
        (fun (n, u) -> (n, Option.value (List.assoc_opt n got) ~default:0.0, u))
        per_layer
    end
  in
  let fewest f =
    Array.fold_left (fun acc (r : Wl.t) -> min acc (Samples.count (f r.leg))) max_int legs
  in
  let counts =
    [ ("write_ack", fewest (fun l -> l.Leg.writes)); ("read", fewest (fun l -> l.Leg.reads)) ]
  in
  Printf.printf "%s, seed %d, %.2f MTPS offered, %d sub-seeds, failed_frac %g\n" w.name seed
    w.mtps nsub
    (Wl.ratio failed (max 1 attempted));
  List.iter
    (fun (n, v, u) ->
      let n_of =
        List.find_map
          (fun (prefix, c) ->
            if String.starts_with ~prefix n && String.ends_with ~suffix:"_us" n then
              Some (Printf.sprintf "  (>= %d samples per sub-seed)" c)
            else None)
          counts
      in
      Printf.printf "  %-36s %16.4f %s%s\n" n v u (Option.value n_of ~default:""))
    metrics;
  let failures = List.rev !failures in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) failures;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failures = []) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          (List.filter (fun (n, _, _) -> not (List.mem n printed_only)) metrics)));
  if failures <> [] then exit 1
