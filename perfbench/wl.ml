(* What one run of a workload yields, the host clocks it is measured
   with, and the per-layer counters every engine-backed workload shares. *)

module Stats = Dudetm_sim.Stats
module Cycles = Dudetm_sim.Cycles
module Nvm = Dudetm_nvm.Nvm
module Trace = Dudetm_trace.Trace

type t = {
  leg : Leg.result;
  user_bytes : int;  (** payload bytes of acknowledged writes *)
  nvm_bytes : int;  (** bytes persisted on every device during the leg *)
  recovery : int;  (** simulated cycles of attach/promote; 0 when not cut *)
  failures : string list;  (** output checks that failed *)
  setup_s : float;  (** host CPU seconds: devices, format, preload *)
  leg_s : float;  (** host CPU seconds of the leg *)
  alloc_words : float;  (** words allocated during the leg *)
  peak_words : int;  (** [Gc] top heap when the leg ended *)
  layers : (string * float) list;  (** traced run only *)
}

(* Host CPU time: steadier than wall time on a shared machine, and the
   simulator is single-threaded, so the two agree when it is alone. *)
let cpu () = Sys.time ()

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let us c = Cycles.to_us c

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let persisted devs = List.fold_left (fun acc d -> acc + Nvm.persisted_write_bytes d) 0 devs

(* One engine's counters: engine, TM and (paged shadow only) shadow. *)
type engine_stats = { eng : Stats.t; tm : Stats.t; shadow : Stats.t option }

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let phase cat name =
  List.find_opt (fun p -> p.Trace.ph_cat = cat && p.Trace.ph_name = name) (Trace.phases ())

let phase_mean_us cat name =
  match phase cat name with
  | Some p when p.Trace.ph_count > 0 ->
    us p.Trace.ph_total /. float_of_int p.Trace.ph_count
  | _ -> 0.0

(* The tm, engine, log, shadow and nvm layers, from public counters and
   the trace phases, over the writes and reads the leg completed. *)
let engine_layers ~(leg : Leg.result) ~engines ~devs ~nvm_bytes =
  let g name = sum (fun e -> Stats.get e.eng name) engines in
  let gtm name = sum (fun e -> Stats.get e.tm name) engines in
  let gsh name =
    sum (fun e -> match e.shadow with Some s -> Stats.get s name | None -> 0) engines
  in
  let hwm name = List.fold_left (fun acc e -> max acc (Stats.get e.eng name)) 0 engines in
  let writes = Samples.count leg.writes and reads = Samples.count leg.reads in
  let kops = float_of_int (writes + reads) /. 1000.0 in
  let commits = gtm "commits" and aborts = gtm "aborts" in
  let records = g "flush_records" in
  let flush_total = match phase "persist" "flush" with Some p -> p.Trace.ph_total | None -> 0 in
  let elapsed = max 1 (Leg.elapsed leg) in
  let util =
    List.fold_left
      (fun acc d -> max acc (float_of_int d.Trace.nd_cycles /. float_of_int elapsed))
      0.0 (Trace.nvm_dev_accts ())
  in
  let log_bytes = g "flush_payload_bytes" in
  [
    ("tm.commit_ratio", ratio commits (commits + aborts));
    ("tm.backoff_cycles_per_commit", ratio (gtm "backoff_cycles") commits);
    ("tm.body_p50_us", us (Samples.percentile Tmwrap.Tm.bodies 50.0));
    ("tm.ro_restarts_per_read", ratio (gtm "snapshot_retries") (max 1 reads));
    ("engine.txs_per_record", ratio (g "txs") records);
    ("engine.persist_batch_mean_us", phase_mean_us "persist" "batch");
    ("engine.persist_flush_mean_us", phase_mean_us "persist" "flush");
    ("engine.persist_combine_mean_us", phase_mean_us "persist" "combine");
    ("engine.pipe_overlap_frac", ratio (g "pipe_overlap_cycles") flush_total);
    ("engine.deadline_flush_frac", 1.0 -. ratio (g "batch_size_flushes") records);
    ("engine.bp_throttle_cycles", float_of_int (g "bp_throttle_cycles"));
    ("engine.plog_hwm_bytes", float_of_int (hwm "plog_hwm_bytes"));
    ("engine.vlog_hwm_entries", float_of_int (hwm "vlog_hwm_entries"));
    ("engine.reproduce_replay_mean_us", phase_mean_us "reproduce" "replay");
    ("log.entries_per_write", ratio (g "log_entries") (max 1 writes));
    ( "log.combine_ratio",
      ratio (g "combine_writes_in") (max 1 (g "combine_writes_out")) );
    ("log.payload_bytes_per_entry", ratio log_bytes (max 1 (g "combine_writes_out")));
    ("shadow.faults_per_kop", float_of_int (gsh "faults") /. kops);
    ("shadow.evictions_per_kop", float_of_int (gsh "evictions") /. kops);
    ("shadow.swapin_waits", float_of_int (gsh "swapin_waits"));
    ("nvm.persists_per_write", ratio (sum Nvm.persist_ops devs) (max 1 writes));
    ("nvm.log_bytes_per_write", ratio log_bytes (max 1 writes));
    ("nvm.home_bytes_per_write", ratio (nvm_bytes - log_bytes) (max 1 writes));
    ("nvm.channel_util_max", util);
  ]

(* Self cycles per completed operation of every layer the benchmark
   wrapped in spans. *)
let span_layers ~(leg : Leg.result) names =
  let ops = float_of_int (max 1 (Leg.completed leg)) in
  List.map (fun l -> (l ^ ".self_us_per_op", us (Spans.self_cycles l) /. ops)) names

(* Run the leg [f] inside [Sched.run] and return it with its host CPU
   seconds, allocated words and top heap.  The devices' byte counters and
   the layers' [stats] restart at the leg (no layer decides anything from
   its own counters), and in the traced run tracing starts with the leg;
   the workload stops it once the simulation has ended, so that spans
   unwound by the end of the run still close. *)
let measured ~traced ~stats devs f =
  List.iter Nvm.reset_counters devs;
  List.iter Stats.reset stats;
  Tmwrap.enable traced;
  Spans.enable traced;
  if traced then Trace.enable ~capacity:(1 lsl 18) ();
  let c0 = cpu () and a0 = allocated () in
  let leg = f () in
  let leg_s = cpu () -. c0 and alloc_words = allocated () -. a0 in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Tmwrap.enable false;
  Spans.enable false;
  (leg, leg_s, (alloc_words, peak_words))

(* The checks every workload shares: done + shed + aborted = submitted,
   and in the traced run a clean [Trace.validate]. *)
let finish ~traced ~(leg : Leg.result) ~user_bytes ~nvm_bytes ~recovery ~failures ~setup_s
    ~leg_s ~alloc:(alloc_words, peak_words) ~layers =
  let accounting =
    if leg.submitted <> Leg.completed leg + leg.shed + leg.aborted then
      [ "done + shed + aborted <> submitted" ]
    else []
  in
  let trace = if traced then List.map (fun v -> "trace: " ^ v) (Trace.validate ()) else [] in
  {
    leg;
    user_bytes;
    nvm_bytes;
    recovery;
    failures = accounting @ trace @ failures;
    setup_s;
    leg_s;
    alloc_words;
    peak_words;
    layers =
      (if traced then layers @ [ ("trace.dropped", float_of_int (Trace.dropped ())) ] else []);
  }
