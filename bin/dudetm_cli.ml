(* Command-line driver: run any benchmark workload on any evaluated system
   with custom parameters, profile it, or run the crash-consistency
   campaigns.

     dune exec bin/dudetm_cli.exe -- run --workload hashtable --system dude
     dune exec bin/dudetm_cli.exe -- run -w tpcc-tree -s mnemosyne -n 2000 --threads 8
     dune exec bin/dudetm_cli.exe -- check --quick
     dune exec bin/dudetm_cli.exe -- layout *)

open Cmdliner
module H = Dudetm_harness.Harness
module Config = Dudetm_core.Config
module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module W = Dudetm_workloads
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

(* ------------------------------- run ---------------------------------- *)

let workload_of_string = function
  | "kv" -> Ok (H.kv_bench ())
  | "kv-tree" -> Ok (H.kv_bench ~storage:W.Kv.Tree ())
  | "hashtable" -> Ok (H.hashtable_bench ())
  | "bptree" -> Ok (H.bptree_bench ())
  | "tatp-hash" -> Ok (H.tatp_bench ~storage:W.Kv.Hash ())
  | "tatp-tree" -> Ok (H.tatp_bench ~storage:W.Kv.Tree ())
  | "tpcc-hash" -> Ok (H.tpcc_bench ~storage:W.Kv.Hash ())
  | "tpcc-tree" -> Ok (H.tpcc_bench ~storage:W.Kv.Tree ())
  | "tpcc-mixed" -> Ok (H.tpcc_bench ~storage:W.Kv.Tree ~mixed:true ())
  | s ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown workload %S (try kv, kv-tree, hashtable, bptree, tatp-hash, tatp-tree, tpcc-hash, tpcc-tree, tpcc-mixed)"
           s))

let system_of_string = function
  | "dude" -> Ok H.Dude
  | "dude-inf" -> Ok H.Dude_inf
  | "dude-sync" -> Ok H.Dude_sync
  | "volatile" -> Ok H.Volatile
  | "mnemosyne" -> Ok H.Mnemosyne
  | "nvml" -> Ok H.Nvml
  | s ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown system %S (try dude, dude-inf, dude-sync, volatile, mnemosyne, nvml)" s))

let workload_conv = Arg.conv (workload_of_string, fun ppf b -> Fmt.string ppf b.H.bname)

let system_conv = Arg.conv (system_of_string, fun ppf s -> Fmt.string ppf (H.system_name s))

(* What [run] and [trace] share: the workload (whose flag each command
   declares itself), the system and the machine flags, checked and built
   into one bench and one system. *)
type setup = {
  bench : H.bench;
  ptm : Dudetm_baselines.Ptm_intf.t;
  threads : int;
  bandwidth : float;
  latency : int;
}

let setup_term workload =
  let system =
    Arg.(
      value & opt system_conv H.Dude
      & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"Durable-transaction system.")
  in
  let ntxs =
    Arg.(value & opt int 0 & info [ "n"; "txs" ] ~doc:"Transactions to run (0 = default).")
  in
  let threads = Arg.(value & opt int 4 & info [ "threads" ] ~doc:"Perform threads.") in
  let bandwidth =
    Arg.(value & opt float 1.0 & info [ "bandwidth" ] ~doc:"NVM write bandwidth, GB/s.")
  in
  let latency =
    Arg.(value & opt int 1000 & info [ "latency" ] ~doc:"Persist latency, cycles.")
  in
  let setup workload system ntxs threads bandwidth latency =
    if system = H.Nvml && not workload.H.static_ok then
      Error "NVML only supports the hash-based (static) workloads"
    else
      Ok
        {
          bench = (if ntxs > 0 then { workload with H.ntxs } else workload);
          ptm = H.make_system ~nthreads:threads ~latency ~bandwidth system;
          threads;
          bandwidth;
          latency;
        }
  in
  Term.(const setup $ workload $ system $ ntxs $ threads $ bandwidth $ latency)

let print_header s (r : H.result) =
  Printf.printf "%s on %s: %d transactions, %d threads, %.1f GB/s, %d-cycle persists\n"
    s.bench.H.bname s.ptm.Dudetm_baselines.Ptm_intf.name r.H.ntxs_run s.threads s.bandwidth
    s.latency

let run_cmd =
  let workload =
    Arg.(
      required
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Benchmark workload to run.")
  in
  let counters =
    Arg.(value & flag & info [ "counters" ] ~doc:"Print all system counters afterwards.")
  in
  let run setup counters =
    match setup with
    | Error msg -> `Error (false, msg)
    | Ok s ->
      let r = H.run_bench s.ptm s.bench in
      print_header s r;
      Printf.printf "  throughput:       %s\n" (H.pp_ktps r.H.ktps);
      Printf.printf "  cycles per tx:    %.0f (wall, all threads)\n" r.H.cycles_per_tx;
      Printf.printf "  writes per tx:    %.1f\n"
        (float_of_int r.H.writes /. float_of_int (max 1 r.H.ntxs_run));
      Printf.printf "  NVM write bytes:  %d (%.1f per tx)\n" r.H.nvm_bytes
        (float_of_int r.H.nvm_bytes /. float_of_int (max 1 r.H.ntxs_run));
      if counters then begin
        print_endline "  counters:";
        List.iter (fun (k, v) -> Printf.printf "    %-28s %d\n" k v) r.H.counters
      end;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload on one system and report throughput.")
    Term.(ret (const run $ setup_term workload $ counters))

(* ------------------------------- trace --------------------------------- *)

module Trace = Dudetm_trace.Trace

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let trace_cmd =
  let workload =
    Arg.(
      value
      & opt workload_conv (H.kv_bench ())
      & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload to profile (default kv).")
  in
  let ring =
    Arg.(
      value & opt int 65536
      & info [ "ring" ] ~doc:"Trace ring capacity, events (oldest are dropped on wrap).")
  in
  let export =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("chrome", `Chrome); ("summary", `Summary) ]) `None
      & info [ "export" ] ~docv:"FORMAT"
          ~doc:
            "Write the trace to a file: $(b,chrome) for Chrome trace_event JSON \
             (chrome://tracing, Perfetto), $(b,summary) for the machine-readable \
             per-phase profile.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Output file for --export (default dudetm_trace.json / dudetm_summary.json).")
  in
  let run setup ring export out =
    match setup with
    | Error msg -> `Error (false, msg)
    | Ok s ->
      Trace.enable ~capacity:ring ();
      let r = H.run_bench s.ptm s.bench in
      Trace.disable ();
      let total_cycles = r.H.run_cycles in
      print_header s r;
      Printf.printf "  throughput:  %s    wall cycles: %d\n\n" (H.pp_ktps r.H.ktps)
        total_cycles;
      Printf.printf "  %-24s %9s %14s %7s %9s %9s %9s\n" "phase" "count" "cycles" "%wall"
        "p50" "p99" "max";
      List.iter
        (fun p ->
          Printf.printf "  %-24s %9d %14d %6.1f%% %9d %9d %9d\n"
            (p.Trace.ph_cat ^ "." ^ p.Trace.ph_name)
            p.Trace.ph_count p.Trace.ph_total
            (100.0 *. float_of_int p.Trace.ph_total /. float_of_int (max 1 total_cycles))
            p.Trace.ph_p50 p.Trace.ph_p99 p.Trace.ph_max)
        (Trace.phases ());
      let accts = Trace.nvm_accts () in
      if accts <> [] then begin
        Printf.printf "\n  NVM channel, by issuing thread:\n";
        Printf.printf "  %-24s %12s %14s %9s %12s\n" "thread" "bytes" "cycles" "ops"
          "utilization";
        List.iter
          (fun a ->
            Printf.printf "  %-24s %12d %14d %9d %11.1f%%\n" a.Trace.nv_thread
              a.Trace.nv_bytes a.Trace.nv_cycles a.Trace.nv_ops
              (100.0 *. float_of_int a.Trace.nv_cycles /. float_of_int (max 1 total_cycles)))
          accts
      end;
      let dev_accts = Trace.nvm_dev_accts () in
      if dev_accts <> [] then begin
        Printf.printf "\n  NVM channel, by device:\n";
        Printf.printf "  %-24s %12s %14s %9s %12s\n" "device" "bytes" "cycles" "ops"
          "utilization";
        List.iter
          (fun a ->
            Printf.printf "  %-24s %12d %14d %9d %11.1f%%\n" a.Trace.nd_dev a.Trace.nd_bytes
              a.Trace.nd_cycles a.Trace.nd_ops
              (100.0 *. float_of_int a.Trace.nd_cycles /. float_of_int (max 1 total_cycles)))
          dev_accts
      end;
      Printf.printf "\n  trace: %d events (%d dropped), %d phases\n" (Trace.events ())
        (Trace.dropped ())
        (List.length (Trace.phases ()));
      let violations = Trace.validate () in
      (match export with
      | `None -> ()
      | `Chrome ->
        let file = Option.value out ~default:"dudetm_trace.json" in
        write_file file (Trace.to_chrome_json ());
        Printf.printf "  wrote Chrome trace_event JSON to %s\n" file
      | `Summary ->
        let file = Option.value out ~default:"dudetm_summary.json" in
        write_file file (Trace.summary_json ~total_cycles ());
        Printf.printf "  wrote profile summary to %s\n" file);
      match violations with
      | [] ->
        Printf.printf "  self-validation: clean\n";
        `Ok ()
      | vs ->
        List.iter (fun v -> Printf.printf "  trace violation: %s\n" v) vs;
        `Error (false, "trace self-validation failed")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Profile a workload with cycle-accurate tracing: per-phase cycle attribution \
          (Perform / Persist / Reproduce / TM), NVM channel utilization per daemon, and \
          optional Chrome trace_event export.")
    Term.(ret (const run $ setup_term workload $ ring $ export $ out))

(* ------------------------------- check -------------------------------- *)

(* One table-driven command: a flag per campaign (explore by default),
   the mutant table, and one option per coordinate of the replay grammar. *)
let check_cmd =
  let module Check = Dudetm_check.Check in
  let campaign =
    Arg.(
      value
      & vflag "explore"
          (List.filter_map
             (fun (name, doc) -> if name = "explore" then None else Some (name, info [ name ] ~doc))
             Check.campaign_docs))
  in
  let mutate =
    let module Inject = Dudetm_sim.Inject in
    let names = List.map (fun (f, name, _) -> (name, f)) Inject.catalogue in
    Arg.(
      value
      & opt (enum (("none", Inject.No_fault) :: names)) Inject.No_fault
      & info [ "mutate" ] ~docv:"MUTANT"
          ~doc:
            ("Seed a deliberate bug (checker self-validation); each is caught by one campaign: "
            ^ String.concat ", "
                (List.map (fun (_, name, c) -> Printf.sprintf "%s (%s)" name c) Inject.catalogue)
            ^ "."))
  in
  let budget =
    Arg.(
      value
      & vflag None
          [
            ( Some (Check.Scaled 1),
              info [ "quick" ] ~doc:"Use the base budget, ignoring DUDETM_CHECK_*." );
            (Some Check.Deep, info [ "deep" ] ~doc:"Use the deep exploration budget.");
          ])
  in
  let args =
    List.fold_left
      (fun acc (flag, doc) ->
        let names =
          match flag with "system" -> [ "s"; flag ] | "workload" -> [ "w"; flag ] | f -> [ f ]
        in
        Term.(
          const (fun l v -> match v with Some v -> (flag, v) :: l | None -> l)
          $ acc
          $ Arg.(value & opt (some string) None & info names ~docv:"VALUE" ~doc)))
      (Term.const []) Check.coordinates
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print progress.") in
  let run campaign mutant budget verbose args =
    let log = if verbose then fun s -> Printf.printf "  %s\n%!" s else ignore in
    match
      let budget = match budget with Some b -> b | None -> Check.budget_of_env () in
      List.fold_left
        (fun failed a ->
          let r = Check.run ~log ~budget ~mutant campaign a in
          Printf.printf "%s\n%!" (Check.summary r);
          failed || match r with Check.Fail _ -> true | Check.Pass _ -> false)
        false (Check.expand campaign args)
    with
    | false -> `Ok ()
    | true -> `Error (false, campaign ^ " campaign failed")
    | exception (Invalid_argument msg | Config.Invalid_config msg) -> `Error (true, msg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Crash-consistency campaigns: power cuts at persist boundaries (and schedules, media \
          faults, daemon faults) judged by each campaign's oracle.  Without a campaign flag, \
          explore the systems x workloads x schedules.  A failure prints a replay line; \
          passing it back replays exactly that case.")
    Term.(ret (const run $ campaign $ mutate $ budget $ verbose $ args))

(* ------------------------------- shard -------------------------------- *)

let shard_cmd =
  let module SB = Dudetm_shard.Shard_bench in
  let nshards =
    Arg.(
      value & opt int 4
      & info [ "n"; "shards" ] ~docv:"N" ~doc:"Independent persistent regions.")
  in
  let cross =
    Arg.(
      value & opt int 10
      & info [ "cross" ] ~docv:"PCT"
          ~doc:"Percentage of transactions that transfer across two shards.")
  in
  let ntxs = Arg.(value & opt int 2000 & info [ "txs" ] ~doc:"Transactions to run.") in
  let workers = Arg.(value & opt int 8 & info [ "workers" ] ~doc:"Worker threads.") in
  let bandwidth =
    Arg.(
      value & opt float 0.25
      & info [ "bandwidth" ] ~doc:"Per-shard NVM write bandwidth, GB/s.")
  in
  let latency =
    Arg.(value & opt int 500 & info [ "latency" ] ~doc:"Persist latency, cycles.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload RNG seed.") in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Trace the run and print per-shard device utilization afterwards.")
  in
  let run nshards cross ntxs workers bandwidth latency seed trace =
    if nshards < 1 || nshards > 60 then `Error (false, "--shards must be in [1, 60]")
    else if cross < 0 || cross > 100 then `Error (false, "--cross must be in [0, 100]")
    else begin
      if trace then Trace.enable ~capacity:65536 ();
      let r =
        SB.run ~seed ~bandwidth ~persist_latency:latency ~ntxs ~workers ~nshards
          ~cross_pct:cross ()
      in
      let dev_accts = if trace then Trace.nvm_dev_accts () else [] in
      if trace then Trace.disable ();
      Printf.printf
        "sharded DUDETM: %d shards, %d transactions, %d workers, %.2f GB/s per shard\n"
        r.SB.sb_nshards r.SB.sb_ntxs workers bandwidth;
      Printf.printf "  cross-shard:      %d of %d transactions (%d%% requested)\n"
        r.SB.sb_cross_txs r.SB.sb_ntxs r.SB.sb_cross_pct;
      Printf.printf "  durable throughput: %s (first commit through drain)\n"
        (H.pp_ktps r.SB.sb_ktps);
      Printf.printf "  cycles:           %d\n" r.SB.sb_cycles;
      Printf.printf "  commit latency:   %s\n" (Stats.Latency.pp r.SB.sb_commit_latency);
      if dev_accts <> [] then begin
        let total_bytes =
          List.fold_left (fun acc a -> acc + a.Trace.nd_bytes) 0 dev_accts
        in
        Printf.printf "  NVM channel, by shard device:\n";
        Printf.printf "  %-12s %12s %14s %9s %12s\n" "device" "bytes" "cycles" "ops"
          "traffic share";
        List.iter
          (fun a ->
            Printf.printf "  %-12s %12d %14d %9d %11.1f%%\n" a.Trace.nd_dev
              a.Trace.nd_bytes a.Trace.nd_cycles a.Trace.nd_ops
              (100.0 *. float_of_int a.Trace.nd_bytes /. float_of_int (max 1 total_bytes)))
          dev_accts
      end;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the partitioned workload on a sharded DUDETM instance (one persist and \
          one reproduce pipeline per region) and report end-to-end durable throughput, \
          the cross-shard mix, and commit-latency percentiles; with --trace, also the \
          per-shard NVM device utilization.")
    Term.(
      ret
        (const run $ nshards $ cross $ ntxs $ workers $ bandwidth $ latency $ seed
       $ trace))

(* ------------------------------- serve -------------------------------- *)

let serve_cmd =
  let module SL = Dudetm_serve.Serve_load in
  let nshards =
    Arg.(value & opt int 2 & info [ "n"; "shards" ] ~docv:"N" ~doc:"Shard count.")
  in
  let tenants = Arg.(value & opt int 4 & info [ "tenants" ] ~doc:"Tenant count.") in
  let sessions =
    Arg.(
      value & opt int 4 & info [ "sessions" ] ~doc:"Client sessions per tenant.")
  in
  let reqs =
    Arg.(
      value & opt int 200 & info [ "reqs" ] ~doc:"Requests per client session.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("open", `Open); ("closed", `Closed) ]) `Open
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Arrival process: open (Poisson at --rate, independent of service \
             time) or closed (one outstanding request per session, --think \
             cycles between replies).")
  in
  let rate =
    Arg.(
      value & opt float 200.0
      & info [ "rate" ] ~docv:"KTPS"
          ~doc:"With --mode open: total offered load, kilo-requests/s.")
  in
  let think =
    Arg.(
      value & opt int 2000
      & info [ "think" ] ~doc:"With --mode closed: think time, cycles.")
  in
  let ro =
    Arg.(
      value & opt int 500
      & info [ "ro" ] ~docv:"PERMILLE"
          ~doc:"Read-only requests per 1000 (reads bypass the admission gate).")
  in
  let theta =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~doc:"Per-tenant Zipf skew exponent.")
  in
  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Workload RNG seed.") in
  let run nshards tenants sessions reqs mode rate think ro theta seed =
    if nshards < 1 || nshards > 60 then `Error (false, "--shards must be in [1, 60]")
    else if tenants < 1 then `Error (false, "--tenants must be positive")
    else if sessions < 1 then `Error (false, "--sessions must be positive")
    else begin
      let mode =
        match mode with
        | `Open -> SL.Open { ktps = rate }
        | `Closed -> SL.Closed { think }
      in
      let r =
        SL.run ~theta ~ro_permille:ro ~seed ~nshards ~ntenants:tenants ~sessions
          ~reqs ~mode ()
      in
      Printf.printf
        "serve: %d tenants x %d sessions (%s loop), %d shards, %d reqs/session\n"
        tenants sessions r.SL.r_mode nshards reqs;
      if r.SL.r_mode = "open" then
        Printf.printf "  offered load:     %s\n" (H.pp_ktps r.SL.r_offered_ktps);
      Printf.printf "  goodput:          %s (%d replies)\n"
        (H.pp_ktps r.SL.r_achieved_ktps)
        r.SL.r_done;
      Printf.printf "  shed:             %d (typed Overloaded replies)\n" r.SL.r_shed;
      Printf.printf "  aborted:          %d\n" r.SL.r_aborted;
      Printf.printf "  write latency:    %s\n" (Stats.Latency.pp r.SL.r_lat_write);
      Printf.printf "  read latency:     %s\n" (Stats.Latency.pp r.SL.r_lat_read);
      Printf.printf "  admission gate:   %d trips, %d reopens, queue hwm %d\n"
        r.SL.r_gate_trips r.SL.r_gate_untrips r.SL.r_depth_hwm;
      Printf.printf "  per tenant:       %-8s %10s %8s %12s\n" "tenant" "done" "shed"
        "p99 (cyc)";
      Array.iteri
        (fun i d ->
          Printf.printf "                    %-8d %10d %8d %12d\n" i d
            r.SL.r_tenant_shed.(i)
            (Stats.Latency.percentile r.SL.r_tenant_lat.(i) 99.0))
        r.SL.r_tenant_done;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive the multi-tenant serving front end (bounded request queue, \
          hysteresis admission gate, deficit-round-robin dispatch, \
          durable-watermark acknowledgements) with open-loop Poisson or \
          closed-loop client sessions over a sharded instance, and report \
          goodput, shed counts, gate transitions and per-tenant latency.")
    Term.(
      ret
        (const run $ nshards $ tenants $ sessions $ reqs $ mode $ rate $ think $ ro
       $ theta $ seed))

(* ------------------------------- scrub -------------------------------- *)

let scrub_cmd =
  let module Scrub = Dudetm_scrub.Scrub in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-injection RNG seed.") in
  let faults =
    Arg.(
      value & opt int 3
      & info [ "faults" ] ~doc:"Random media faults to inject before scrubbing.")
  in
  let probe =
    Arg.(
      value & flag
      & info [ "probe-stuck" ] ~doc:"Write-probe every heap line for stuck-at faults.")
  in
  let report_only =
    Arg.(value & flag & info [ "report-only" ] ~doc:"Audit without repairing.")
  in
  let run seed faults probe report_only =
    let cfg =
      {
        Config.default with
        Config.heap_size = 1 lsl 16;
        nthreads = 3;
        vlog_capacity = 256;
        plog_size = 1 lsl 13;
        meta_size = 8192;
        checkpoint_records = 2;
      }
    in
    let rng = Rng.create seed in
    let t = D.create cfg in
    let nvm = D.nvm t in
    (* Exercise the device with the counter workload, then cut power
       mid-run: the scrub gets a realistic image with live log records. *)
    let crash_cycles = 50_000 + Rng.int rng 200_000 in
    ignore
      (Sched.run (fun () ->
           D.start t;
           for th = 0 to cfg.Config.nthreads - 1 do
             ignore
               (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                    while true do
                      ignore
                        (D.atomically t ~thread:th (fun tx ->
                             let c = D.read tx 0 in
                             let c1 = Int64.add c 1L in
                             D.write tx (8 + (8 * (Int64.to_int c1 mod 64))) c1;
                             D.write tx 0 c1))
                    done))
           done;
           Sched.advance crash_cycles;
           Sched.halt ()));
    Nvm.crash nvm;
    let lines = Nvm.size nvm / Nvm.line_size nvm in
    for _ = 1 to faults do
      match Rng.int rng 3 with
      | 0 ->
        let off = Rng.int rng (Nvm.size nvm) and bit = Rng.int rng 8 in
        Printf.printf "inject: bit rot at byte %d, bit %d\n" off bit;
        Nvm.inject_fault nvm (Nvm.Bit_rot { off; bit })
      | 1 ->
        let line = Rng.int rng lines in
        Printf.printf "inject: poison line %d\n" line;
        Nvm.inject_fault nvm (Nvm.Poison { line })
      | _ ->
        let line = Rng.int rng (cfg.Config.heap_size / Nvm.line_size nvm) in
        Printf.printf "inject: stuck line %d\n" line;
        Nvm.inject_fault nvm (Nvm.Stuck_line { line })
    done;
    let r = Scrub.scrub ~repair:(not report_only) ~probe_stuck:probe cfg nvm in
    Format.printf "scrub: @[%a@]@." Scrub.pp_report r;
    if r.Scrub.ckpt = `Fatal then
      `Error (false, "both checkpoint slots lost: instance unrecoverable")
    else begin
      let t2, rr = D.attach cfg nvm in
      Printf.printf
        "recovery: durable=%d replayed=%d corrupted_records=%d quarantined_lines=%d\n"
        rr.Dudetm_core.Dudetm.durable rr.Dudetm_core.Dudetm.replayed_txs
        rr.Dudetm_core.Dudetm.corrupted_records rr.Dudetm_core.Dudetm.quarantined_lines;
      if r.Scrub.bad_extents <> [] then begin
        (* Unreconstructible extents: don't refuse service — attach in
           degraded read-only mode so the surviving data stays readable
           while writes are rejected with the reason. *)
        D.freeze t2
          ~reason:
            (Printf.sprintf "%d unreconstructible extent(s) reported by scrub"
               (List.length r.Scrub.bad_extents));
        Printf.printf
          "degraded: attached READ-ONLY (%d unreconstructible extents; writes and \
           allocation will raise Read_only)\n"
          (List.length r.Scrub.bad_extents);
        `Ok ()
      end
      else `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Media-fault scrub demo: exercise a device, crash it, inject seeded media faults \
          (bit rot, poison, stuck lines), then audit and repair via the checksum directory \
          and live log records before recovering.")
    Term.(ret (const run $ seed $ faults $ probe $ report_only))

(* ------------------------------ layout -------------------------------- *)

let layout_cmd =
  let run () =
    let cfg = Config.default in
    Printf.printf "default configuration:\n";
    Printf.printf "  heap:            %d MiB at offset 0\n" (cfg.Config.heap_size lsr 20);
    Printf.printf "  meta block:      %d KiB at 0x%x\n" (cfg.Config.meta_size lsr 10)
      (Config.meta_base cfg);
    Printf.printf "  crc directory:   %d KiB at 0x%x (%d-byte extents)\n"
      (Config.crcdir_size cfg lsr 10) (Config.crcdir_base cfg) Config.crc_extent;
    Printf.printf "  bad-line table:  %d B at 0x%x (%d entries)\n"
      (Config.badline_size cfg) (Config.badline_base cfg) Config.badline_capacity;
    Printf.printf "  log rings:       %d x %d KiB starting at 0x%x\n"
      (Config.plog_regions cfg) (cfg.Config.plog_size lsr 10) (Config.plog_base cfg 0);
    Printf.printf "  device size:     %d MiB\n" (Config.nvm_size cfg lsr 20);
    Printf.printf "  threads:         %d\n" cfg.Config.nthreads;
    Printf.printf "  volatile log:    %d entries per thread\n" cfg.Config.vlog_capacity;
    Printf.printf "  NVM:             %.1f GB/s, %d-cycle persists\n"
      cfg.Config.pmem.Dudetm_nvm.Pmem_config.bandwidth_gbps
      cfg.Config.pmem.Dudetm_nvm.Pmem_config.persist_latency
  in
  Cmd.v (Cmd.info "layout" ~doc:"Print the default NVM layout and configuration.")
    Term.(const run $ const ())

let () =
  let doc = "DudeTM: decoupled durable transactions for persistent memory (simulated)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "dudetm" ~doc)
          [
            run_cmd;
            trace_cmd;
            check_cmd;
            shard_cmd;
            serve_cmd;
            scrub_cmd;
            layout_cmd;
          ]))
