module Nvm = Dudetm_nvm.Nvm
module Rng = Dudetm_sim.Rng
module Sched = Dudetm_sim.Sched
module Plog = Dudetm_log.Plog
module Config = Dudetm_core.Config
module Dudetm = Dudetm_core.Dudetm
module Scrub = Dudetm_scrub.Scrub
module Ptm = Dudetm_baselines.Ptm_intf
module Dude_ptm = Dudetm_baselines.Dude_ptm
module Mnemosyne = Dudetm_baselines.Mnemosyne
module Nvml = Dudetm_baselines.Nvml

(* ------------------------------------------------------------------ *)
(* Campaign kernel                                                    *)
(* ------------------------------------------------------------------ *)

exception Crash_now

exception Failed of string

let fail reason = raise (Failed reason)

let judge = function None -> () | Some reason -> fail reason

type budget = Smoke | Quick | Scaled of int | Deep

let budget_of_env () =
  if Sys.getenv_opt "DUDETM_CHECK_DEEP" = Some "1" then Deep
  else
    match Option.bind (Sys.getenv_opt "DUDETM_CHECK_BUDGET") int_of_string_opt with
    | Some m when m > 1 -> Scaled m
    | _ -> Scaled 1

(* Power cuts per clean run for the cut-sweep campaigns. *)
let cut_sites = function Deep -> 600 | Scaled m -> 60 * m | Smoke | Quick -> 60

type params = (string * string) list

let param p k =
  match List.assoc_opt k p with Some v -> v | None -> invalid_arg ("Check: missing --" ^ k)

let int_param p k = int_of_string (param p k)

let set k v p = (k, v) :: List.remove_assoc k p

let mutants =
  [
    (Config.Early_durable_publish, "early-durable", "explore");
    (Config.Unfenced_reproduce, "unfenced-reproduce", "explore");
    (Config.Skip_crc_verify, "skip-crc-verify", "media");
    (Config.Skip_recovery_journal, "skip-recovery-journal", "recovery");
    (Config.Skip_fragment_gate, "skip-fragment-gate", "shards");
    (Config.Skip_batch_seal, "skip-batch-seal", "batch");
    (Config.Skip_quorum_gate, "skip-quorum-gate", "replica");
    (Config.Skip_handoff_seal, "skip-handoff-seal", "migrate");
    (Config.Skip_snapshot_validate, "skip-snapshot-validate", "snapshot");
    (Config.Skip_admission_gate, "skip-admission-gate", "serve");
  ]

let mutant_name f =
  match List.find_opt (fun (g, _, _) -> g = f) mutants with Some (_, n, _) -> n | None -> "none"

let mutant_of_name n =
  match List.find_opt (fun (_, m, _) -> m = n) mutants with
  | Some (f, _, _) -> f
  | None when n = "none" -> Config.No_fault
  | None -> invalid_arg ("Check: unknown mutant " ^ n)

type failure = {
  campaign : string;
  mutant : Config.fault;
  params : params;
  cuts : int list;
  reason : string;
}

type 'sys ctx = {
  devices : 'sys -> Nvm.t array;
  mutant : Config.fault;
  vector : int list;
  mutable lives : int list;  (* boundaries of each finished life, latest first *)
  mutable armed : Nvm.t array;
  mutable sites : int;
  mutable tallies : (string * int) list;
}

(* Counters in first-seen order, e.g. the serve campaign's acked requests. *)
let add_tally tallies (k, n) =
  if List.mem_assoc k tallies then
    List.map (fun (k', m) -> (k', if k' = k then m + n else m)) tallies
  else tallies @ [ (k, n) ]

let tally ctx k n = ctx.tallies <- add_tally ctx.tallies (k, n)

let disarm ctx =
  if Array.length ctx.armed > 0 then begin
    Array.iter (fun n -> Nvm.set_persist_hook n None) ctx.armed;
    ctx.armed <- [||];
    ctx.lives <- ctx.sites :: ctx.lives
  end

(* Start the next life of the system: the persist hook on every device of
   [sys] counts boundaries, runs [sample] (a watermark read at the
   boundary captures exactly what was acknowledged when the power goes
   out), and cuts power at this life's entry of the cut vector. *)
let arm ?(sample = ignore) ctx sys =
  disarm ctx;
  let cut = Option.value (List.nth_opt ctx.vector (List.length ctx.lives)) ~default:0 in
  let devs = ctx.devices sys in
  ctx.sites <- 0;
  ctx.armed <- devs;
  let hook () =
    ctx.sites <- ctx.sites + 1;
    sample ();
    if ctx.sites = cut then raise Crash_now
  in
  Array.iter (fun n -> Nvm.set_persist_hook n (Some hook)) devs

(* [Some v] when [f] completed, [None] when the power was cut; engine
   failures become the run's verdict.  The life is always disarmed. *)
let guard ?(what = "engine") ctx f =
  match f () with
  | v ->
    disarm ctx;
    Some v
  | exception Crash_now ->
    disarm ctx;
    None
  | exception (Failed _ as e) ->
    disarm ctx;
    raise e
  | exception Sched.Deadlock msg ->
    disarm ctx;
    fail ("deadlock: " ^ msg)
  | exception e ->
    disarm ctx;
    fail (what ^ " raised " ^ Printexc.to_string e)

(* Up to [n] boundaries out of [1..s], always covering both ends. *)
let sample_sites ~s ~n =
  if s <= 0 || n <= 0 then []
  else if s <= n then List.init s (fun i -> i + 1)
  else if n = 1 then [ 1 ]
  else List.sort_uniq compare (List.init n (fun i -> 1 + (i * (s - 1) / (n - 1))))

type point = {
  at : params;
  prefix : int list;
  single : int -> int list;
  deep : (int * int) option;
}

let point ?(prefix = []) ?deep ~single at = { at; prefix; single; deep }

(* A coordinate is fixed (always present, with a default), a sweep
   dimension (absent: swept, each value reported separately for [Each]),
   or a case coordinate that selects the replay of one case. *)
type kind = Fixed of string | Each of string list | Sweep | Case

type coord = { flag : string; kind : kind; valid : string -> bool }

type ('sys, 'obs) campaign = {
  name : string;
  doc : string;
  coords : coord list;
  depth : int;
  devices : 'sys -> Nvm.t array;
  run : 'sys ctx -> params -> 'obs;
  oracle : params -> 'obs -> string option;
  plan : budget -> params -> (params -> int list -> int) -> point Seq.t;
  post : (string * int) list -> string option;
  shrink : (params -> (int list * string) option) -> failure -> failure;
}

type report = {
  campaign : string;
  given : params;
  runs : int;
  boundaries : int;
  tallies : (string * int) list;
}

type result = Pass of report | Fail of failure

exception Found of failure

let case c ~mutant at vector =
  let ctx =
    { devices = c.devices; mutant; vector; lives = []; armed = [||]; sites = 0; tallies = [] }
  in
  let verdict = try c.oracle at (c.run ctx at) with Failed reason -> Some reason in
  disarm ctx;
  (verdict, List.rev ctx.lives, ctx.tallies)

let sweep ?(log = ignore) c ~mutant ~given points =
  let runs = ref 0 and boundaries = ref 0 and tallies = ref [] in
  let exec at vector =
    incr runs;
    let verdict, lives, ts = case c ~mutant at vector in
    tallies := List.fold_left add_tally !tallies ts;
    match verdict with
    | Some reason -> raise (Found { campaign = c.name; mutant; params = at; cuts = vector; reason })
    | None -> lives
  in
  let count at vector =
    Option.value (List.nth_opt (exec at vector) (List.length vector)) ~default:0
  in
  let show at = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) at) in
  match
    Seq.iter
      (fun pt ->
        let c0 = count pt.at pt.prefix in
        boundaries := !boundaries + c0;
        let ks = pt.single c0 in
        log
          (Printf.sprintf "%s %s: %d boundaries, cutting at %d" c.name (show pt.at) c0
             (List.length ks));
        List.iter (fun k -> ignore (exec pt.at (pt.prefix @ [ k ]))) ks;
        Option.iter
          (fun (n1, n2) ->
            List.iter
              (fun k1 ->
                let v1 = pt.prefix @ [ k1 ] in
                let c1 = count pt.at v1 in
                log
                  (Printf.sprintf "%s %s: two deep after cut %d, %d boundaries" c.name
                     (show pt.at) k1 c1);
                List.iter (fun k2 -> ignore (exec pt.at (v1 @ [ k2 ]))) (sample_sites ~s:c1 ~n:n2))
              (sample_sites ~s:c0 ~n:n1))
          pt.deep)
      (points count)
  with
  | () -> (
    match c.post !tallies with
    | None ->
      Pass
        { campaign = c.name; given; runs = !runs; boundaries = !boundaries; tallies = !tallies }
    | Some reason -> Fail { campaign = c.name; mutant; params = given; cuts = []; reason })
  | exception Found f -> Fail f

(* First failure under [at]: its clean run, then ascending cuts. *)
let first_failing c ~mutant ~scan at =
  let ascending _ = Seq.return (point at ~single:(fun s -> List.init (min s scan) succ)) in
  match sweep c ~mutant ~given:at ascending with
  | Pass _ -> None
  | Fail f -> Some (f.cuts, f.reason)

(* ------------------------------------------------------------------ *)
(* Systems under test                                                 *)
(* ------------------------------------------------------------------ *)

type recovered = { rec_durable : int option; rec_peek : int -> int64 }

type instance = { ptm : Ptm.t; nvm : Nvm.t; recover : unit -> recovered }

(* Small layouts keep a single checked run in the low milliseconds: the
   budgets below run hundreds of them. *)
let dude_cfg ~combine ~fault =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    root_size = 4096;
    nthreads = 3;
    vlog_capacity = 256;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    group_size = (if combine then 2 else 1);
    combine;
    compress = combine;
    persist_threads = 1;
    reproduce_batch = 4;
    (* checkpoint early and often: ring recycling is where Reproduce
       ordering bugs become observable *)
    checkpoint_records = 2;
    seed = 7;
    fault;
  }

let stm_instance cfg =
  let p, _ = Dude_ptm.Stm.ptm cfg in
  let nvm = Option.get p.Ptm.nvm in
  let recover () =
    let p2, _, report = Dude_ptm.Stm.attach_ptm cfg nvm in
    { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek }
  in
  { ptm = p; nvm; recover }

let htm_instance cfg =
  let p, _ = Dude_ptm.Htm_based.ptm cfg in
  let nvm = Option.get p.Ptm.nvm in
  let recover () =
    let p2, _, report = Dude_ptm.Htm_based.attach_ptm cfg nvm in
    { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek }
  in
  { ptm = p; nvm; recover }

let no_durable p = { rec_durable = None; rec_peek = p.Ptm.peek }

let mnemosyne_instance () =
  let m =
    Mnemosyne.create
      {
        Mnemosyne.default_config with
        Mnemosyne.heap_size = 1 lsl 16;
        nthreads = 3;
        log_size = 1 lsl 13;
        seed = 7;
      }
  in
  let p = Mnemosyne.ptm_of m in
  let recover () =
    ignore (Mnemosyne.recover m);
    no_durable p
  in
  { ptm = p; nvm = Mnemosyne.nvm m; recover }

let nvml_instance () =
  let n =
    Nvml.create
      {
        Nvml.default_config with
        Nvml.heap_size = 1 lsl 16;
        nthreads = 3;
        log_size = 1 lsl 13;
        seed = 7;
      }
  in
  let p = Nvml.ptm_of n in
  let recover () =
    ignore (Nvml.recover n);
    no_durable p
  in
  { ptm = p; nvm = Nvml.nvm n; recover }

(* Mutants seed bugs into the software-TM DudeTM variants only. *)
let systems =
  [
    ("dude", fun fault -> stm_instance (dude_cfg ~combine:false ~fault));
    ("dude-combine", fun fault -> stm_instance (dude_cfg ~combine:true ~fault));
    ("dude-htm", fun _ -> htm_instance (dude_cfg ~combine:false ~fault:Config.No_fault));
    ("mnemosyne", fun _ -> mnemosyne_instance ());
    ("nvml", fun _ -> nvml_instance ());
  ]

(* ------------------------------------------------------------------ *)
(* Counter-family workloads                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  threads : int;
  txs_per_thread : int;
  wl_wset : int list option;
  tx_body : Ptm.tx -> unit;
  check_state : peek:(int -> int64) -> k:int -> string option;
}

(* Counter family: transaction number i (in serialization order) always
   writes the root counter (address 0) to i, so the whole durable state is
   a function of the recovered counter alone — which transaction ran on
   which thread never matters. *)
let slot_addr j = 8 + (8 * j)

let slot_check ~slots ~stamp ~peek ~k =
  let expect = Array.make slots 0 in
  for i = 1 to k do
    List.iter (fun j -> expect.(j) <- i) (stamp i)
  done;
  let bad = ref None in
  for j = slots - 1 downto 0 do
    let got = Int64.to_int (peek (slot_addr j)) in
    if got <> expect.(j) then
      bad :=
        Some
          (Printf.sprintf "slot %d holds %d, model says %d after %d commits" j got expect.(j) k)
  done;
  !bad

let counter_family ~slots ~stamp ~threads ~txs =
  {
    threads;
    txs_per_thread = txs;
    wl_wset = None;
    tx_body =
      (fun tx ->
        let c1 = 1 + Int64.to_int (tx.Ptm.read 0) in
        List.iter (fun j -> tx.Ptm.write (slot_addr j) (Int64.of_int c1)) (stamp c1);
        tx.Ptm.write 0 (Int64.of_int c1));
    check_state = (fun ~peek ~k -> slot_check ~slots ~stamp ~peek ~k);
  }

let counter ~threads ~txs = counter_family ~slots:8 ~stamp:(fun i -> [ i mod 8 ]) ~threads ~txs

let workload_of_name ~threads ~txs = function
  | "counter" -> counter ~threads ~txs
  (* Adversarial: every transaction stamps two overlapping slots. *)
  | "overlap" -> counter_family ~slots:5 ~stamp:(fun i -> [ i mod 5; (i + 1) mod 5 ]) ~threads ~txs
  (* Single cell with a declared write set: the only workload expressible
     as a static transaction (NVML). *)
  | "counter1" ->
    {
      threads;
      txs_per_thread = txs;
      wl_wset = Some [ 0 ];
      tx_body = (fun tx -> tx.Ptm.write 0 (Int64.of_int (1 + Int64.to_int (tx.Ptm.read 0))));
      check_state = (fun ~peek:_ ~k:_ -> None);
    }
  | s -> invalid_arg ("Check: unknown workload " ^ s)

(* ------------------------------------------------------------------ *)
(* One workload life and the crash oracle                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  wl : workload;
  quiescent : bool;
  committed : int;
  acked : int;
  last_tid : int;
  monitor : string option;
  recov : recovered;
  note : string;  (* appended to a failure: what the adversary did *)
}

(* Run [wl] on [inst] under [strategy] as one life (power cut at the life's
   entry of the cut vector), then the device loses all volatile state and
   the system recovers.  [evict = Some (fraction, seed)] leaks a seeded
   random subset of dirty cache lines into the persisted image at the
   power cut; the surviving lines are named in the outcome's note. *)
let workload_life ?evict ?(strategy = Sched.min_clock) ctx ~quiescent ~wl inst =
  let p = inst.ptm in
  let acked = ref 0 and monitor = ref None and committed = ref 0 in
  let note_acked d = if d > !acked then acked := d in
  (* Armed only now: device formatting happens before any transaction
     exists, so its persists are not crash candidates. *)
  arm ctx inst.nvm ~sample:(fun () -> note_acked (p.Ptm.durable_id ()));
  let main () =
    p.Ptm.start ();
    let last_d = ref 0 in
    ignore
      (Sched.spawn ~daemon:true "check-monitor" (fun () ->
           try
             while true do
               let d = p.Ptm.durable_id () in
               let l = p.Ptm.last_tid () in
               if d < !last_d && !monitor = None then
                 monitor := Some (Printf.sprintf "durable id regressed from %d to %d" !last_d d);
               if d > l && !monitor = None then
                 monitor := Some (Printf.sprintf "durable id %d ahead of last issued tid %d" d l);
               if d > !last_d then last_d := d;
               note_acked d;
               Sched.advance 100
             done
           with Sched.Killed -> ()));
    let done_workers = ref 0 in
    for th = 0 to wl.threads - 1 do
      ignore
        (Sched.spawn (Printf.sprintf "check-worker-%d" th) (fun () ->
             for _ = 1 to wl.txs_per_thread do
               match p.Ptm.atomically ~thread:th ?wset:wl.wl_wset wl.tx_body with
               | Some ((), tid) -> if tid > 0 then incr committed
               | None -> ()
             done;
             incr done_workers))
    done;
    Sched.wait_until ~label:"check workers done" (fun () -> !done_workers = wl.threads);
    p.Ptm.drain ();
    p.Ptm.stop ()
  in
  ignore (guard ctx (fun () -> Sched.run ~strategy main));
  (* Nothing ran since the cut, so this still reads the pre-crash value. *)
  note_acked (p.Ptm.durable_id ());
  let last_tid = p.Ptm.last_tid () in
  let note =
    match evict with
    | None ->
      Nvm.crash inst.nvm;
      ""
    | Some (fraction, seed) -> (
      Nvm.crash ~evict_fraction:fraction ~rng:(Rng.create seed) inst.nvm;
      match Nvm.last_crash_survivors inst.nvm with
      | [] -> " (no dirty lines survived the cut)"
      | l -> " (surviving lines: " ^ String.concat "," (List.map string_of_int l) ^ ")")
  in
  let recov = try inst.recover () with e -> fail ("recovery raised " ^ Printexc.to_string e) in
  {
    wl;
    quiescent;
    committed = !committed;
    acked = !acked;
    last_tid;
    monitor = !monitor;
    recov;
    note;
  }

(* After every recovery: atomicity (the image is the model state of some
   commit prefix k), durability of everything acknowledged, durable-ID
   sanity, agreement with recovery's own durable ID, and no loss at
   quiescence.  Torn log records are covered implicitly: a recovery that
   accepts one replays garbage and fails the model check. *)
let verify o =
  match o.monitor with
  | Some m -> Some m
  | None -> (
    let peek = o.recov.rec_peek in
    let k = Int64.to_int (peek 0) in
    if k < 0 then Some (Printf.sprintf "recovered counter is negative: %d" k)
      (* A transaction can be mid-acknowledgment per thread, so the
         recovered counter may exceed the last *observed* issued ID by at
         most the thread count. *)
    else if k > o.last_tid + o.wl.threads then
      Some (Printf.sprintf "recovered counter %d beyond issued ids (last tid %d)" k o.last_tid)
    else if k < o.acked then
      Some
        (Printf.sprintf "durability lost: durable id %d was acknowledged, recovery found only %d"
           o.acked k)
    else
      match o.recov.rec_durable with
      | Some d when d <> k ->
        Some (Printf.sprintf "recovery reports durable id %d but the data image shows %d" d k)
      | _ ->
        if o.quiescent && k <> o.committed then
          Some
            (Printf.sprintf "quiescent crash lost transactions: committed %d, recovered %d"
               o.committed k)
        else o.wl.check_state ~peek ~k)

let verify_noted o = Option.map (fun r -> r ^ o.note) (verify o)

(* ------------------------------------------------------------------ *)
(* explore: systems x workloads x schedules                           *)
(* ------------------------------------------------------------------ *)

type explore_budget = {
  crash_sites : int;
  sched_seeds : int;
  crash_sites_per_seed : int;
  exhaustive_runs : int;
  exhaustive_depth : int;
}

let explore_budget = function
  | Smoke ->
    {
      crash_sites = 25;
      sched_seeds = 2;
      crash_sites_per_seed = 6;
      exhaustive_runs = 12;
      exhaustive_depth = 5;
    }
  | Quick | Scaled 1 ->
    {
      crash_sites = 40;
      sched_seeds = 3;
      crash_sites_per_seed = 8;
      exhaustive_runs = 24;
      exhaustive_depth = 6;
    }
  | Scaled m ->
    {
      crash_sites = 40 * m;
      sched_seeds = 3;
      crash_sites_per_seed = 8 * m;
      exhaustive_runs = 24 * m;
      exhaustive_depth = 8;
    }
  | Deep ->
    {
      crash_sites = 400;
      sched_seeds = 12;
      crash_sites_per_seed = 40;
      exhaustive_runs = 300;
      exhaustive_depth = 10;
    }

(* Scheduling decisions (step, candidates, choice) of the last run under a
   scripted prefix: the bounded DFS branches on them. *)
let decisions = ref []

(* "default" (min-clock order), "seed:N" (seeded random preemption) or
   "prefix:c0,c1,..." (scripted decision-point choices, then default). *)
let strategy_of s =
  let bad () = invalid_arg ("Check: bad schedule " ^ s) in
  let num n = match int_of_string_opt n with Some n -> n | None -> bad () in
  match String.split_on_char ':' s with
  | [ "default" ] -> Sched.min_clock
  | [ "seed"; n ] -> Sched.random_priority ~seed:(num n)
  | [ "prefix"; l ] ->
    let arr = Array.of_list (if l = "" then [] else List.map num (String.split_on_char ',' l)) in
    decisions := [];
    Sched.Choice
      (fun ~step ~candidates ->
        let c = if step < Array.length arr then arr.(step) else 0 in
        decisions := (step, candidates, c) :: !decisions;
        c)
  | _ -> bad ()

let valid_sched s = match strategy_of s with _ -> true | exception Invalid_argument _ -> false

let evict_of at =
  let f = float_of_string (param at "evict") in
  if f > 0. then Some (f, int_param at "evict-seed") else None

let explore_run ctx at =
  let wl =
    workload_of_name ~threads:(int_param at "threads") ~txs:(int_param at "txs")
      (param at "workload")
  in
  let evict = evict_of at in
  let strategy = strategy_of (param at "sched") in
  let inst = (List.assoc (param at "system") systems) ctx.mutant in
  workload_life ?evict ~strategy ctx ~quiescent:(ctx.vector = [] && evict = None) ~wl inst

let take n l = List.filteri (fun i _ -> i < n) l

(* Bounded exhaustive DFS over the first [exhaustive_depth] scheduling
   decision points.  Every explored schedule runs to quiescence and then
   loses power, so the oracle additionally proves no committed transaction
   is lost under any of these interleavings.  Children are pushed once the
   parent's run has logged its decisions. *)
let dfs_points b at =
  let stack = ref [ [] ] and count = ref 0 in
  let rec next () =
    match !stack with
    | prefix :: rest when !count < b.exhaustive_runs ->
      stack := rest;
      incr count;
      let sched = "prefix:" ^ String.concat "," (List.map string_of_int prefix) in
      Seq.Cons
        ( point (set "sched" sched at) ~single:(fun _ -> []),
          fun () ->
            let taken =
              List.sort compare (List.filter (fun (s, _, _) -> s < b.exhaustive_depth) !decisions)
            in
            let chosen = List.map (fun (_, _, c) -> c) taken in
            List.iter
              (fun (step, candidates, _) ->
                if step >= List.length prefix then
                  for c = candidates - 1 downto 1 do
                    stack := (take step chosen @ [ c ]) :: !stack
                  done)
              taken;
            next () )
    | _ -> Seq.Nil
  in
  next

(* Per workload: a crash sweep under the default schedule, then under
   seeded random preemption, then (without the eviction adversary) the
   bounded DFS. *)
let explore_plan budget at _count =
  let b = explore_budget budget in
  let wls =
    match List.assoc_opt "workload" at with
    | Some w -> [ w ]
    | None -> if param at "system" = "nvml" then [ "counter1" ] else [ "counter"; "overlap" ]
  in
  Seq.concat_map
    (fun w ->
      let at = set "workload" w at in
      let pt sched n = point (set "sched" sched at) ~single:(fun s -> sample_sites ~s ~n) in
      Seq.append
        (List.to_seq
           (pt "default" b.crash_sites
           :: List.init b.sched_seeds (fun i ->
                  pt (Printf.sprintf "seed:%d" (i + 1)) b.crash_sites_per_seed)))
        (if evict_of at = None then dfs_points b at else Seq.empty))
    (List.to_seq wls)

(* Shrink to the default schedule if it reproduces, then to the fewest
   transactions per thread, then to the earliest failing boundary; each
   probe is a clean run plus an ascending scan of cuts. *)
let explore_shrink first f =
  let retry f at =
    Option.map (fun (cuts, reason) -> { f with params = at; cuts; reason }) (first at)
  in
  let f =
    if param f.params "sched" = "default" then f
    else Option.value (retry f (set "sched" "default" f.params)) ~default:f
  in
  let rec fewer txs =
    if txs >= int_param f.params "txs" then f
    else
      match retry f (set "txs" (string_of_int txs) f.params) with
      | Some g -> g
      | None -> fewer (txs + 1)
  in
  let f = fewer 1 in
  match f.cuts with [ k ] when k > 1 -> Option.value (retry f f.params) ~default:f | _ -> f

(* ------------------------------------------------------------------ *)
(* media: seeded media faults after the power cut                     *)
(* ------------------------------------------------------------------ *)

(* Live state of the [counter] workload lives in bytes [0, 72) of the heap
   (the root counter plus 8 slots), so a flip there always corrupts
   meaningful data — the campaign's detection oracle is deterministic, not
   probabilistic.  Distinct (offset, bit) pairs keep two flips from
   cancelling out. *)
let live_bytes = 72

let inject_heap_rot nvm rng ~chosen ~descrs =
  let rec pick () =
    let off = Rng.int rng live_bytes and bit = Rng.int rng 8 in
    if Hashtbl.mem chosen (off, bit) then pick ()
    else begin
      Hashtbl.add chosen (off, bit) ();
      (off, bit)
    end
  in
  let off, bit = pick () in
  Nvm.inject_fault nvm (Nvm.Bit_rot { off; bit });
  descrs := Printf.sprintf "rot(heap:%d.%d)" off bit :: !descrs

(* Flip a payload bit of the FIRST sealed record of a ring, never the last:
   damage to the last record is indistinguishable from a torn tail and is
   (correctly) discarded without being counted, which would defeat the
   "detected or reported" oracle.  With fewer than two records the ring is
   left alone and heap rot is injected instead.  [Plog.attach_scan] on a
   valid header only reads, so this pre-scan does not disturb the device. *)
let inject_ring_rot cfg nvm rng ~chosen ~descrs =
  let r = Rng.int rng (Config.plog_regions cfg) in
  let base = Config.plog_base cfg r in
  let t, scan = Plog.attach_scan nvm ~base ~size:cfg.Config.plog_size in
  match scan.Plog.records with
  | first :: _ :: _ ->
    let plen = Bytes.length first.Plog.payload in
    let start = first.Plog.end_off - Plog.record_overhead - plen in
    let j = Rng.int rng (max 1 plen) in
    let off = base + Plog.header_size + ((start + 16 + j) mod Plog.data_capacity t) in
    let bit = Rng.int rng 8 in
    Nvm.inject_fault nvm (Nvm.Bit_rot { off; bit });
    descrs := Printf.sprintf "rot(plog%d:rec%d+%d.%d)" r first.Plog.seq j bit :: !descrs
  | _ -> inject_heap_rot nvm rng ~chosen ~descrs

(* Inject 1-3 seeded faults into the persisted image at the crash point:
   heap rot only ("heap"), or heap rot, ring rot, poison and stuck lines
   ("mixed").  Poison is injected last so the ring pre-scans above never
   trip over a line poisoned by an earlier draw. *)
let inject_faults cfg nvm ~mode ~seed ~descrs =
  let rng = Rng.create (0x6d656469 lxor seed) in
  let chosen = Hashtbl.create 8 in
  let n = 1 + Rng.int rng 3 in
  let poisons = ref [] in
  for _ = 1 to n do
    match if mode = "heap" then 0 else Rng.int rng 4 with
    | 0 -> inject_heap_rot nvm rng ~chosen ~descrs
    | 1 -> inject_ring_rot cfg nvm rng ~chosen ~descrs
    | 2 ->
      let line = Rng.int rng (Nvm.size nvm / Nvm.line_size nvm) in
      poisons := line :: !poisons;
      descrs := Printf.sprintf "poison(line:%d)" line :: !descrs
    | _ ->
      let line = Rng.int rng (cfg.Config.heap_size / Nvm.line_size nvm) in
      Nvm.inject_fault nvm (Nvm.Stuck_line { line });
      descrs := Printf.sprintf "stuck(line:%d)" line :: !descrs
  done;
  List.iter (fun line -> Nvm.inject_fault nvm (Nvm.Poison { line })) !poisons;
  n

(* Run the workload (optionally cutting power mid-way), inject seeded media
   faults into what survived, scrub, then recover.  The oracle is "never
   silently wrong": the recovered state must either verify like any crash
   run, or the damage must have been *reported* — by the scrub (non-clean
   report) or by recovery itself (corrupted records / quarantined lines). *)
let media_run ctx at =
  let cfg = dude_cfg ~combine:false ~fault:ctx.mutant in
  let inst = stm_instance cfg in
  let descrs = ref [] and reported = ref false in
  let recover () =
    tally ctx "faults injected"
      (inject_faults cfg inst.nvm ~mode:(param at "faults") ~seed:(int_param at "media-seed")
         ~descrs);
    let sr = Scrub.scrub ~repair:true ~probe_stuck:true cfg inst.nvm in
    if not (Scrub.clean sr) then reported := true;
    if sr.Scrub.ckpt = `Fatal then
      (* Both checkpoint slots destroyed: the instance is lost, but
         loudly — that counts as reported, never as silent. *)
      { rec_durable = Some 0; rec_peek = (fun _ -> 0L) }
    else begin
      let p2, _, report = Dude_ptm.Stm.attach_ptm cfg inst.nvm in
      if report.Dudetm.corrupted_records > 0 || report.Dudetm.quarantined_lines > 0 then
        reported := true;
      { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek }
    end
  in
  let o =
    workload_life ctx ~quiescent:false ~wl:(counter ~threads:3 ~txs:4) { inst with recover }
  in
  (o, !reported, String.concat " " (List.rev !descrs))

let media_oracle _ (o, reported, injected) =
  match verify o with
  | Some reason when not reported -> Some (Printf.sprintf "%s (injected: %s)" reason injected)
  | _ -> None

(* Per seed: heap rot at quiescence, mixed faults at quiescence, and mixed
   faults at a seed-derived crash boundary. *)
let media_plan budget _ _ =
  let seeds = match budget with Smoke -> 2 | _ -> 6 in
  Seq.concat_map
    (fun s ->
      let at mode = [ ("media-seed", string_of_int s); ("faults", mode) ] in
      List.to_seq
        [
          point (at "heap") ~single:(fun _ -> []);
          point (at "mixed") ~single:(fun c -> [ 1 + (s * 7919 mod max 1 c) ]);
        ])
    (Seq.init seeds succ)

(* ------------------------------------------------------------------ *)
(* recovery: power cuts inside attach and scrub                       *)
(* ------------------------------------------------------------------ *)

type recovery_budget = {
  rec_seeds : int;  (* seed-derived first-crash boundaries (plus quiescence) *)
  rec_attach_sites : int;  (* boundaries cut inside attach (all, up to this) *)
  rec_scrub_sites : int;  (* sampled boundaries cut inside the scrub *)
  rec_deep_points : int;  (* first-recovery cuts that get a nested sweep *)
  rec_deep_sites : int;  (* sampled boundaries inside the second recovery *)
}

let recovery_budget = function
  | Smoke | Quick ->
    {
      rec_seeds = 1;
      rec_attach_sites = 16;
      rec_scrub_sites = 8;
      rec_deep_points = 1;
      rec_deep_sites = 2;
    }
  | Scaled _ | Deep ->
    {
      rec_seeds = 4;
      rec_attach_sites = 60;
      rec_scrub_sites = 32;
      rec_deep_points = 2;
      rec_deep_sites = 4;
    }

let report_to_string (r : Dudetm.recovery_report) =
  Printf.sprintf
    "{durable=%d replayed=%d discarded_txs=%d discarded_records=%d corrupted=%d quarantined=%d}"
    r.Dudetm.durable r.Dudetm.replayed_txs r.Dudetm.discarded_txs r.Dudetm.discarded_records
    r.Dudetm.corrupted_records r.Dudetm.quarantined_lines

(* Uninterrupted recovery verdict per (mutant, first cut): the reference
   every interrupted recovery of the same image must converge to. *)
let baselines = Hashtbl.create 8

(* Life 0 runs the workload and cuts it at crash-at (0: quiescence) without
   recovering.  Life 1 runs the named leg — attach, or the offline scrub
   with repair and stuck-line probes — cut at crash2; every cut life is
   followed by another attach life (cut at crash3), and the first attach
   that completes gives the final verdict.  It must equal the baseline
   field for field and pass the crash oracle. *)
let recovery_run ctx at =
  let cfg = dude_cfg ~combine:false ~fault:ctx.mutant in
  let crash = Option.value (List.nth_opt ctx.vector 0) ~default:0 in
  let image ctx =
    let inst = stm_instance cfg in
    let o =
      workload_life ctx ~quiescent:(crash = 0) ~wl:(counter ~threads:3 ~txs:4)
        { inst with recover = (fun () -> no_durable inst.ptm) }
    in
    (inst.nvm, o)
  in
  let baseline =
    match Hashtbl.find_opt baselines (ctx.mutant, crash) with
    | Some b -> b
    | None ->
      (* Its own context: the baseline image's life is not a life of this run. *)
      let nvm, _ = image { ctx with vector = [ crash ]; lives = []; armed = [||]; tallies = [] } in
      let b =
        match Dude_ptm.Stm.attach_ptm cfg nvm with
        | _, _, r -> r
        | exception e -> fail ("uninterrupted attach raised " ^ Printexc.to_string e)
      in
      Hashtbl.add baselines (ctx.mutant, crash) b;
      b
  in
  let nvm, o = image ctx in
  let rec life leg =
    arm ctx nvm;
    match
      guard ~what:leg ctx (fun () ->
          if leg = "attach" then Some (Dude_ptm.Stm.attach_ptm cfg nvm)
          else (ignore (Scrub.scrub ~repair:true ~probe_stuck:true cfg nvm); None))
    with
    | Some (Some (p2, _, report)) -> (p2, report)
    | Some None -> life "attach"
    | None ->
      Nvm.crash nvm;
      life "attach"
  in
  let p2, report = life (param at "leg") in
  let recov = { rec_durable = Some report.Dudetm.durable; rec_peek = p2.Ptm.peek } in
  (report, baseline, { o with recov })

let recovery_oracle _ (report, baseline, o) =
  if report <> baseline then
    Some
      (Printf.sprintf "recovery verdict diverged: interrupted %s, uninterrupted %s"
         (report_to_string report) (report_to_string baseline))
  else verify o

(* Quiescence plus seed-derived first cuts; per leg every (attach) or a
   sample of (scrub) recovery-time boundaries, then two deep.  The scrub
   leg has far more boundaries than attach (the stuck-line probe sweep
   touches every heap line), so it is sampled; its first boundaries are
   always included because they cover the probes of the workload's live
   lines — the exact window the [Skip_recovery_journal] mutant corrupts. *)
let recovery_plan budget at count =
  let b = recovery_budget budget in
  let sites = count (set "leg" "attach" at) [] in
  Seq.concat_map
    (fun crash ->
      List.to_seq
        [
          point ~prefix:[ crash ]
            ~deep:(b.rec_deep_points, b.rec_deep_sites)
            ~single:(fun s -> sample_sites ~s ~n:b.rec_attach_sites)
            (set "leg" "attach" at);
          point ~prefix:[ crash ]
            ~deep:(b.rec_deep_points, b.rec_deep_sites)
            ~single:(fun s ->
              List.sort_uniq compare
                (sample_sites ~s ~n:b.rec_scrub_sites @ sample_sites ~s:(min s 8) ~n:8))
            (set "leg" "scrub" at);
        ])
    (List.to_seq (0 :: List.init b.rec_seeds (fun i -> 1 + ((i + 1) * 7919 mod max 1 sites))))

(* ------------------------------------------------------------------ *)
(* daemons: supervised Persist/Reproduce restarts                     *)
(* ------------------------------------------------------------------ *)

(* Transient Persist/Reproduce worker failures must be invisible: with the
   supervisor restarting crashed daemons from their persistent positions,
   every run must still satisfy the ordinary crash oracle (and a quiescent
   run must still drain completely) — only the restart counters may move. *)
let daemons_run ctx at =
  let seed = int_param at "daemon-seed" in
  let cfg =
    {
      (dude_cfg ~combine:false ~fault:ctx.mutant) with
      Config.daemon_fault_rate = float_of_string (param at "fault-rate");
      seed = 7 + seed;
    }
  in
  let inst = stm_instance cfg in
  let recover () =
    let counters = inst.ptm.Ptm.counters () in
    let count k = Option.value (List.assoc_opt k counters) ~default:0 in
    tally ctx "faults injected" (count "daemon_faults");
    tally ctx "restarts" (count "daemon_restarts");
    inst.recover ()
  in
  workload_life ctx ~quiescent:(ctx.vector = []) ~wl:(counter ~threads:3 ~txs:4)
    { inst with recover }

let daemons_plan budget at _ =
  Seq.map
    (fun s ->
      point
        (set "daemon-seed" (string_of_int s) at)
        ~single:(fun c -> [ 1 + (s * 7919 mod max 1 c) ]))
    (Seq.init (match budget with Smoke | Quick -> 2 | _ -> 4) succ)

(* A sweep in which no daemon ever restarted proves nothing. *)
let daemons_post tallies =
  if Option.value (List.assoc_opt "restarts" tallies) ~default:0 = 0 then
    Some "vacuous sweep: no daemon restart was ever exercised"
  else None

(* ------------------------------------------------------------------ *)
(* shards: cross-shard transfers across independent devices           *)
(* ------------------------------------------------------------------ *)

module Shard = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)

let shard_devices sh = Array.init (Shard.nshards sh) (Shard.nvm sh)

(* Word layout inside every shard's root block (mirrors test_shard.ml):
   0       balance — cross-shard transfers preserve the global sum
   8       single-shard local counter
   16+8*p  pairwise stamp: both sides of a transfer write the same stamp *)
let shb_balance = 0

let shb_local = 8

let shb_pair p = 16 + (8 * p)

let shb_initial = 1_000L

(* Sequential mixed transfers and local bumps, one power cut counted
   across every shard's device.  The vector watermark is sampled at each
   boundary — exactly what had been acknowledged when the power went out. *)
let shards_run ctx at =
  let nshards = int_param at "shard-count" and txs = int_param at "txs" in
  if nshards < 2 then invalid_arg "Check: --shards needs at least two shards";
  let sh = Shard.create ~nshards (dude_cfg ~combine:false ~fault:ctx.mutant) in
  let acked_frontier = ref 0 and acked_eff = Array.make nshards 0 in
  let sample () =
    acked_frontier := max !acked_frontier (Shard.global_frontier sh);
    Array.iteri (fun s e -> acked_eff.(s) <- max acked_eff.(s) e) (Shard.effective_vector sh)
  in
  let completed =
    guard ctx (fun () ->
        Sched.run (fun () ->
            Shard.start sh;
            for s = 0 to nshards - 1 do
              ignore
                (Shard.atomically sh ~thread:0 ~shards:[ s ] (fun tx ->
                     Shard.write tx ~shard:s shb_balance shb_initial))
            done;
            arm ctx ~sample sh;
            for k = 1 to txs do
              let a = k mod nshards and b = (k + 1) mod nshards in
              (* Bloat [b]'s next flush record first.  Persist drains a
                 thread's whole backlog into one record and publishes its
                 durable IDs at a single fence, so queue depth alone creates
                 no skew — record size does: [b]'s fence lands well after
                 [a]'s tiny fragment record is durable (and applicable),
                 opening the window the replay gate must cover. *)
              ignore
                (Shard.atomically sh ~thread:(k mod 3) ~shards:[ b ] (fun tx ->
                     for i = 0 to 63 do
                       Shard.write tx ~shard:b (1024 + (8 * i)) (Int64.of_int (k + i))
                     done;
                     Shard.write tx ~shard:b shb_local
                       (Int64.add (Shard.read tx ~shard:b shb_local) 1L)));
              ignore
                (Shard.atomically sh ~thread:(k mod 3) ~shards:[ a; b ] (fun tx ->
                     let ba = Shard.read tx ~shard:a shb_balance in
                     let bb = Shard.read tx ~shard:b shb_balance in
                     Shard.write tx ~shard:a shb_balance (Int64.sub ba 5L);
                     Shard.write tx ~shard:b shb_balance (Int64.add bb 5L);
                     Shard.write tx ~shard:a (shb_pair b) (Int64.of_int k);
                     Shard.write tx ~shard:b (shb_pair a) (Int64.of_int k)))
            done;
            disarm ctx;
            Shard.stop sh))
  in
  let recovered =
    if completed <> None then sh
    else begin
      Array.iter Nvm.crash (shard_devices sh);
      match Shard.attach ~nshards (Shard.config sh) (shard_devices sh) with
      | sh2, _ -> sh2
      | exception e -> fail ("recovery raised " ^ Printexc.to_string e)
    end
  in
  (recovered, !acked_frontier, acked_eff)

(* All-or-nothing and watermark oracle.  Both sides of every transfer
   wrote the same pairwise stamp, so the sides must agree; every transfer
   preserved the sum over shards whose seeding transaction (tid 1) is
   durable; and nothing the effective watermark acknowledged before the
   cut may be missing afterwards. *)
let shards_oracle _ (sh, acked_frontier, acked_eff) =
  let nshards = Shard.nshards sh in
  let peek s off = Shard.Engine.heap_read_u64 (Shard.engine sh s) off in
  let bad = ref None in
  let report r = if !bad = None then bad := Some r in
  for a = 0 to nshards - 1 do
    for b = a + 1 to nshards - 1 do
      let sa = peek a (shb_pair b) and sb = peek b (shb_pair a) in
      if sa <> sb then
        report (Printf.sprintf "partial cross-shard tx: pair stamp %d<->%d is %Ld vs %Ld" a b sa sb)
    done
  done;
  let sum = ref 0L and seeded = ref 0 in
  for s = 0 to nshards - 1 do
    sum := Int64.add !sum (peek s shb_balance);
    if Shard.Engine.durable_id (Shard.engine sh s) >= 1 then incr seeded
  done;
  let want = Int64.mul shb_initial (Int64.of_int !seeded) in
  if !sum <> want then
    report
      (Printf.sprintf "balance sum %Ld, model says %Ld for %d durable seeds" !sum want !seeded);
  if Shard.global_frontier sh < acked_frontier then
    report
      (Printf.sprintf "acked cross tx lost: recovered frontier %d < acknowledged %d"
         (Shard.global_frontier sh) acked_frontier);
  for s = 0 to nshards - 1 do
    let d = Shard.Engine.durable_id (Shard.engine sh s) in
    if d < acked_eff.(s) then
      report
        (Printf.sprintf "acked tx lost on shard %d: durable %d < acknowledged %d" s d
           acked_eff.(s))
  done;
  !bad

(* A clean run, then cuts at a sample of its boundaries. *)
let cut_plan ?deep budget at _ =
  let n = cut_sites budget in
  let deep = Option.map (fun d -> (max 3 (n / d), max 3 (n / d))) deep in
  Seq.return (point at ?deep ~single:(fun s -> sample_sites ~s ~n))

(* ------------------------------------------------------------------ *)
(* batch: pipelined group commit, re-crashed recovery                 *)
(* ------------------------------------------------------------------ *)

(* Small groups, a short deadline and a tiny adaptive bound: every few
   transactions seal a batch, so deadline-, size- and drain-triggered
   batches all occur within one short run. *)
let batch_cfg ~fault =
  {
    (dude_cfg ~combine:true ~fault) with
    Config.group_size = 4;
    batch_min_entries = 2;
    batch_max_entries = 16;
    batch_deadline = 512;
  }

type batch_obs = {
  b_acked : int;
  b_quiescent : bool;
  b_committed : int;
  b_durable : int;
  b_peek : int -> int64;
}

(* Durable-prefix oracle after an attach: the recovered counter is a
   commit count [k]; nothing acknowledged may be missing, recovery's own
   durable report must match the data image, and every slot must hold the
   last write the first [k] transactions made to it. *)
let batch_oracle at o =
  let k = Int64.to_int (o.b_peek 0) in
  if k < 0 then Some (Printf.sprintf "recovered counter is negative: %d" k)
  else if k < o.b_acked then
    Some
      (Printf.sprintf "durability lost: durable id %d was acknowledged, recovery found only %d"
         o.b_acked k)
  else if o.b_durable <> k then
    Some (Printf.sprintf "recovery reports durable id %d but the data image shows %d" o.b_durable k)
  else if o.b_quiescent && k <> o.b_committed then
    Some
      (Printf.sprintf "quiescent stop lost transactions: committed %d, recovered %d"
         o.b_committed k)
  else (counter ~threads:3 ~txs:(int_param at "txs")).check_state ~peek:o.b_peek ~k

(* The combiner seals batch k+1 while the flusher's record for batch k is
   still in flight, so the sweep lands cuts mid-pipeline: after a seal but
   before the matching NVM append.  Two deep: cut the first life, attach,
   keep committing on the recovered engine and cut its second life — a
   recovery that mends the torn batch by writing state it never re-fences
   survives the first cut and loses data at the second. *)
let batch_run ctx at =
  let txs = int_param at "txs" in
  let cfg = batch_cfg ~fault:ctx.mutant in
  let wl = counter ~threads:cfg.Config.nthreads ~txs in
  let p1, _ = Dude_ptm.Stm.ptm cfg in
  let nvm = Option.get p1.Ptm.nvm in
  let life (p : Ptm.t) =
    let acked = ref 0 and last_d = ref 0 and err = ref None and committed = ref 0 in
    arm ctx nvm ~sample:(fun () ->
        let d = p.Ptm.durable_id () in
        if d < !last_d && !err = None then
          err := Some (Printf.sprintf "durable id regressed from %d to %d" !last_d d);
        last_d := max !last_d d;
        acked := max !acked d);
    let completed =
      guard ctx (fun () ->
          Sched.run (fun () ->
              p.Ptm.start ();
              let done_workers = ref 0 in
              for th = 0 to wl.threads - 1 do
                ignore
                  (Sched.spawn (Printf.sprintf "batch-worker-%d" th) (fun () ->
                       for _ = 1 to txs do
                         match p.Ptm.atomically ~thread:th wl.tx_body with
                         | Some ((), tid) -> if tid > 0 then incr committed
                         | None -> ()
                       done;
                       incr done_workers))
              done;
              Sched.wait_until ~label:"batch workers done" (fun () -> !done_workers = wl.threads);
              p.Ptm.drain ();
              p.Ptm.stop ()))
    in
    judge !err;
    acked := max !acked (p.Ptm.durable_id ());
    Nvm.crash nvm;
    match Dude_ptm.Stm.attach_ptm cfg nvm with
    | p2, _, report ->
      ( p2,
        {
          b_acked = !acked;
          b_quiescent = completed <> None;
          b_committed = !committed;
          b_durable = report.Dudetm.durable;
          b_peek = p2.Ptm.peek;
        } )
    | exception e -> fail ("recovery raised " ^ Printexc.to_string e)
  in
  let p2, o1 = life p1 in
  if o1.b_quiescent then o1
  else begin
    judge (batch_oracle at o1);
    let _, o2 = life p2 in
    { o2 with b_committed = o1.b_durable + o2.b_committed }
  end

(* ------------------------------------------------------------------ *)
(* replica: primary killed, replica promoted                          *)
(* ------------------------------------------------------------------ *)

(* Cuts land at persist boundaries of the *primary's* device.  Because the
   ship hook hangs off the Persist daemon, they cover every interesting
   replication point: record persisted but frame not yet sent, frames in
   flight, acks in flight, mid-retransmit (faulty links), and mid-catch-up
   (healed partition).  The [Skip_quorum_gate] mutant acknowledges at the
   primary-local seal; cuts with frames still in flight leave every
   replica short of the "acked" watermark, which promotion exposes. *)

module Rep = Dudetm_replica.Replica.Make (Dudetm_tm.Tinystm)
module Link = Dudetm_replica.Link

let replica_scenarios = [ "clean"; "faulty"; "partition" ]

let replica_faults =
  {
    Link.drop = 0.05;
    duplicate = 0.05;
    reorder = 0.05;
    delay = 0.03;
    delay_cycles = 30_000;
    corrupt = 0.03;
  }

let replica_tx tx =
  let c1 = 1 + Int64.to_int (Rep.Engine.read tx 0) in
  Rep.Engine.write tx (slot_addr (c1 mod 8)) (Int64.of_int c1);
  Rep.Engine.write tx 0 (Int64.of_int c1)

let replica_run ctx at =
  let nreplicas = int_param at "replicas" and txs = int_param at "txs" in
  let scenario = param at "scenario" in
  let cfg = { (batch_cfg ~fault:ctx.mutant) with Config.plog_size = 1 lsl 14 } in
  let link =
    {
      Link.default_config with
      Link.faults = (if scenario = "faulty" then replica_faults else Link.no_faults);
      seed = cfg.Config.seed;
    }
  in
  let c = Rep.create ~rcfg:{ (Rep.default_config ~nreplicas ()) with Rep.link } cfg in
  let prim = Rep.primary c in
  let last_d = ref 0 and err = ref None and committed = ref 0 and drained_quorum = ref false in
  arm ctx prim ~sample:(fun () ->
      let d = Rep.Engine.durable_id prim in
      if d < !last_d && !err = None then
        err := Some (Printf.sprintf "durable id regressed from %d to %d" !last_d d);
      last_d := max !last_d d);
  let completed =
    guard ~what:"cluster" ctx (fun () ->
        Sched.run (fun () ->
            Rep.start c;
            if scenario = "partition" then
              (* Partition the last replica mid-run, heal it later: crash
                 points before the heal exercise quorum-minus-one, points
                 after it exercise retransmit-driven catch-up. *)
              ignore
                (Sched.spawn ~daemon:true "partitioner" (fun () ->
                     try
                       Sched.advance 40_000;
                       Rep.set_partitioned c (nreplicas - 1) true;
                       Sched.advance 400_000;
                       Rep.set_partitioned c (nreplicas - 1) false
                     with Sched.Killed -> ()));
            let done_workers = ref 0 in
            for th = 0 to cfg.Config.nthreads - 1 do
              ignore
                (Sched.spawn (Printf.sprintf "replica-worker-%d" th) (fun () ->
                     for i = 1 to txs do
                       match Rep.Engine.atomically prim ~thread:th replica_tx with
                       | Some (_, tid) when tid > 0 ->
                         incr committed;
                         (* Exercise the bounded quorum wait on a sample of
                            commits; the rest stay decoupled. *)
                         if i mod 4 = 0 then ignore (Rep.wait_acked c tid)
                       | _ -> ()
                     done;
                     incr done_workers))
            done;
            Sched.wait_until ~label:"replica workers done" (fun () ->
                !done_workers = cfg.Config.nthreads);
            (match Rep.drain c with
            | Rep.Quorum -> drained_quorum := true
            | Rep.Degraded_quorum _ -> ());
            Rep.sync_followers c;
            Rep.stop c))
  in
  judge !err;
  (* The watermark is monotone, so its value now is its value at the cut:
     exactly what was ever acknowledged as quorum-durable. *)
  let acked = Rep.acked c in
  match Rep.promote c with
  | eng, prom ->
    (acked, prom, Rep.Engine.heap_read_u64 eng, completed <> None && !drained_quorum, !committed)
  | exception e -> fail ("promotion raised " ^ Printexc.to_string e)

(* No quorum-acked transaction lost, the watermark never past the quorum
   prefix, and the promoted image exactly the model state of the recovered
   commit count.  With K = 1 the quorum is the primary alone, so acks
   promise primary-local durability only and failover makes no no-loss
   promise: only the prefix-consistency checks apply. *)
let replica_oracle at (acked, prom, peek, quiescent, committed) =
  let k = Int64.to_int (peek 0) in
  let durable = prom.Rep.report.Dudetm.durable in
  let guarded = Rep.quorum_needed ~nreplicas:(int_param at "replicas") > 1 in
  if guarded && acked > prom.Rep.quorum_prefix then
    Some
      (Printf.sprintf "acked watermark %d passed the quorum prefix %d (candidates %s)" acked
         prom.Rep.quorum_prefix
         (String.concat "," (Array.to_list (Array.map string_of_int prom.Rep.candidates))))
  else if guarded && durable < acked then
    Some
      (Printf.sprintf "durability lost: watermark %d was quorum-acked, promotion recovered only %d"
         acked durable)
  else if k <> durable then
    Some (Printf.sprintf "promotion reports durable id %d but the data image shows %d" durable k)
  else if quiescent && k <> committed then
    Some (Printf.sprintf "quiescent stop lost transactions: committed %d, promoted %d" committed k)
  else slot_check ~slots:8 ~stamp:(fun i -> [ i mod 8 ]) ~peek ~k

(* Per link scenario, the site budget split across the scenarios swept. *)
let replica_plan budget at _ =
  let scenarios =
    match List.assoc_opt "scenario" at with Some s -> [ s ] | None -> replica_scenarios
  in
  let n = max 4 (cut_sites budget / List.length scenarios) in
  Seq.map
    (fun sc -> point (set "scenario" sc at) ~single:(fun s -> sample_sites ~s ~n))
    (List.to_seq scenarios)

(* ------------------------------------------------------------------ *)
(* migrate: live 4->8 resharding under traffic                        *)
(* ------------------------------------------------------------------ *)

(* 8 engines, an 8-bucket partition initially owned by shards 0-3 (two
   buckets each), and four migrations handing every odd bucket to a fresh
   shard 4-7 — each under application traffic that keeps landing
   increments inside and outside the moving range, so cuts fall in the
   double-write window, between the flip's three seals, and mid-cleanup.
   Boundaries are counted across all eight devices (the handoff journal's
   own seals are boundaries too).

   The per-key model tracks a commit count and, at every boundary, how
   many of each key's commits were acknowledged under the sampled vector
   watermark (local acks against the per-shard effective IDs, window
   double-writes against the global frontier).  After recovery the value
   at the key's descriptor-routed owner must sit in [acked, committed];
   after the completed schedule it must equal the commit count exactly,
   with every moved range's source slots recycled to zero.

   The second life is armed before the first re-attach, so its cut can
   land inside recovery itself — between the roll-forward seals of a
   half-flipped handoff — and the third attach must still converge.  The
   [Skip_handoff_seal] mutant flips volatile routing without sealing the
   handoff record or the new descriptor; any cut after the first flip
   recovers the stale descriptor, routes the moved range back to the
   source, and loses the destination's acknowledged writes. *)

module Mig = Dudetm_shard.Migrate.Make (Dudetm_tm.Tinystm)
module Handoff = Dudetm_shard.Handoff
module Partition = Dudetm_workloads.Partition

let migrate_nshards = 8

let migrate_nkeys = 16

(* Bucket [b] covers keys {2b, 2b+1}. *)
let mg_initial_owners = [| 0; 0; 1; 1; 2; 2; 3; 3 |]

let mg_final_owners = [| 0; 4; 1; 5; 2; 6; 3; 7 |]

let mg_moves = List.init 4 (fun m -> (m, 4 + m, (2 * m) + 1))

let mg_slot k = 8 * k

type mg_ack = Mg_local of int * int | Mg_cross of int

type mg_model = {
  mg_committed : int array;
  mg_acked : int array;  (* running max of the satisfied ack prefix *)
  mg_pending : mg_ack Queue.t array;  (* per key, in commit order *)
  mutable mg_fmax : int;
  mg_emax : int array;
}

(* Unacknowledged commits are void once the power is cut: their tids/gtids
   can be reissued by the next life, so leaving them queued would let a
   second-life watermark satisfy a first-life ack. *)
let mg_void_pending model = Array.iter Queue.clear model.mg_pending

(* One increment through the router; records the commit and its ack. *)
let mg_bump mig model ~thread k =
  match Mig.apply mig ~thread ~key:k (fun v -> Int64.add v 1L) with
  | Some (_, ack) -> (
    model.mg_committed.(k) <- model.mg_committed.(k) + 1;
    match ack with
    | Mig.Sh.Ack_local { shard; tid } -> Queue.push (Mg_local (shard, tid)) model.mg_pending.(k)
    | Mig.Sh.Ack_cross { gtid } -> Queue.push (Mg_cross gtid) model.mg_pending.(k)
    | Mig.Sh.Ack_read_only -> ())
  | None -> ()

(* The value the descriptor-routed owner holds for every key must cover
   everything acknowledged and never exceed the commit count; [final]
   additionally demands the completed-resharding fixpoint: final owners,
   exact counts, and every non-owner slot recycled to zero. *)
let mg_oracle ~final (sh, mig, model) =
  let peek s k = Mig.Sh.Engine.heap_read_u64 (Mig.Sh.engine sh s) (mg_slot k) in
  let bad = ref None in
  let report r = if !bad = None then bad := Some r in
  for k = 0 to migrate_nkeys - 1 do
    let o = Mig.owner mig k in
    let v = Int64.to_int (peek o k) in
    if v < model.mg_acked.(k) then
      report
        (Printf.sprintf "acked write lost: key %d on owner shard %d is %d, %d were acked" k o v
           model.mg_acked.(k));
    if v > model.mg_committed.(k) then
      report
        (Printf.sprintf "phantom write: key %d on owner shard %d is %d, only %d committed" k o v
           model.mg_committed.(k))
  done;
  if final then begin
    let owners = Partition.owners (Mig.partition mig) in
    if owners <> mg_final_owners then
      report
        (Printf.sprintf "resharding did not converge: owners %s"
           (String.concat ";" (Array.to_list (Array.map string_of_int owners))));
    for k = 0 to migrate_nkeys - 1 do
      let o = Mig.owner mig k in
      let v = Int64.to_int (peek o k) in
      if v <> model.mg_committed.(k) then
        report
          (Printf.sprintf "quiescent stop lost writes: key %d is %d, committed %d" k v
             model.mg_committed.(k));
      for s = 0 to migrate_nshards - 1 do
        if s <> o && peek s k <> 0L then
          report
            (Printf.sprintf "unreachable extent: shard %d still holds %Ld for key %d (owner %d)" s
               (peek s k) k o)
      done
    done
  end;
  !bad

(* A crash discards every commit past the durable cut, so once the
   mid-recovery oracle has bounded the recovered values the model rebases
   on them: they are the baseline the completion life builds on. *)
let mg_rebase sh mig model =
  for k = 0 to migrate_nkeys - 1 do
    let o = Mig.owner mig k in
    let v = Int64.to_int (Mig.Sh.Engine.heap_read_u64 (Mig.Sh.engine sh o) (mg_slot k)) in
    model.mg_committed.(k) <- v;
    if model.mg_acked.(k) > v then model.mg_acked.(k) <- v
  done

(* The deterministic resharding schedule under traffic: per move, a full
   round of increments, then chunked copy interleaved with double-writes
   in the moving range and traffic outside it, the flip, a post-flip
   commit routed to the new owner, and chunked cleanup under traffic. *)
let mg_schedule mig model =
  let round () =
    for k = 0 to migrate_nkeys - 1 do
      mg_bump mig model ~thread:(k mod 3) k
    done
  in
  List.iter
    (fun (src, dst, b) ->
      round ();
      Mig.begin_migration mig ~src ~dst ~blo:b ~bhi:(b + 1);
      let kin = 2 * b and kout = ((2 * b) + 5) mod migrate_nkeys in
      let fin = ref false in
      while not !fin do
        fin := Mig.copy_step ~chunk:1 mig ~thread:0;
        mg_bump mig model ~thread:1 kin;
        mg_bump mig model ~thread:2 kout
      done;
      Mig.flip mig;
      mg_bump mig model ~thread:0 ((2 * b) + 1);
      let fin = ref false in
      while not !fin do
        fin := Mig.cleanup_step ~chunk:2 mig ~thread:0;
        mg_bump mig model ~thread:1 kout
      done)
    mg_moves;
  round ()

(* After a re-attach: finish any pending cleanup, re-run every move the
   descriptor still shows unfinished, then one more round to prove the
   recovered instance routes and commits. *)
let mg_complete mig model =
  (match Mig.migrating mig with
  | Some (_, Handoff.Cleanup) ->
    while not (Mig.cleanup_step ~chunk:4 mig ~thread:0) do
      ()
    done
  | Some _ | None -> ());
  let owners = Partition.owners (Mig.partition mig) in
  List.iter
    (fun (src, dst, b) ->
      if owners.(b) = src then Mig.migrate ~chunk:1 mig ~thread:0 ~src ~dst ~blo:b ~bhi:(b + 1))
    mg_moves;
  for k = 0 to migrate_nkeys - 1 do
    mg_bump mig model ~thread:(k mod 3) k
  done

(* First life: the schedule, cut at crash-at.  Second life, armed before
   the re-attach: attach and completion, cut at crash2.  After a second
   cut, an unarmed attach and completion.  Each attach is judged by the
   mid-recovery oracle; the returned state by the final one. *)
let migrate_run ctx _ =
  let cfg = dude_cfg ~combine:false ~fault:ctx.mutant in
  let part =
    Partition.buckets ~nshards:migrate_nshards ~lo:0L ~hi:(Int64.of_int migrate_nkeys)
      ~owners:mg_initial_owners
  in
  let sh = Mig.Sh.create ~nshards:migrate_nshards cfg in
  let mig = Mig.create sh ~part ~nkeys:migrate_nkeys ~slot_of:mg_slot in
  let nvms = Array.init migrate_nshards (Mig.Sh.nvm sh) in
  let model =
    {
      mg_committed = Array.make migrate_nkeys 0;
      mg_acked = Array.make migrate_nkeys 0;
      mg_pending = Array.init migrate_nkeys (fun _ -> Queue.create ());
      mg_fmax = 0;
      mg_emax = Array.make migrate_nshards 0;
    }
  in
  let cur_sh = ref sh in
  let sample () =
    let f = Mig.Sh.global_frontier !cur_sh in
    if f > model.mg_fmax then model.mg_fmax <- f;
    Array.iteri
      (fun s e -> model.mg_emax.(s) <- max model.mg_emax.(s) e)
      (Mig.Sh.effective_vector !cur_sh);
    for k = 0 to migrate_nkeys - 1 do
      let q = model.mg_pending.(k) in
      let satisfied = function
        | Mg_local (s, tid) -> model.mg_emax.(s) >= tid
        | Mg_cross g -> model.mg_fmax >= g
      in
      while (not (Queue.is_empty q)) && satisfied (Queue.peek q) do
        ignore (Queue.pop q);
        model.mg_acked.(k) <- model.mg_acked.(k) + 1
      done
    done
  in
  let crash () =
    mg_void_pending model;
    Array.iter Nvm.crash nvms
  in
  let attach () =
    let sh2, _ = Mig.Sh.attach ~nshards:migrate_nshards cfg nvms in
    cur_sh := sh2;
    let mig2, _ = Mig.attach sh2 ~nkeys:migrate_nkeys ~slot_of:mg_slot in
    judge (mg_oracle ~final:false (sh2, mig2, model));
    mg_rebase sh2 mig2 model;
    (sh2, mig2)
  in
  let complete (sh2, mig2) =
    Sched.run (fun () ->
        Mig.Sh.start sh2;
        mg_complete mig2 model;
        disarm ctx;
        Mig.Sh.stop sh2)
  in
  let first =
    guard ctx (fun () ->
        Sched.run (fun () ->
            Mig.Sh.start sh;
            arm ctx ~sample sh;
            mg_schedule mig model;
            disarm ctx;
            Mig.Sh.stop sh))
  in
  if first <> None then (sh, mig, model)
  else begin
    crash ();
    arm ctx ~sample sh;
    let second () =
      let s = attach () in
      ignore (complete s);
      s
    in
    match guard ~what:"recovered engine" ctx second with
    | Some (sh2, mig2) -> (sh2, mig2, model)
    | None ->
      (* No further cuts: attach once more and finish the schedule. *)
      crash ();
      let sh3, mig3 =
        try attach () with
        | Failed _ as e -> raise e
        | e -> fail ("re-recovery raised " ^ Printexc.to_string e)
      in
      (match complete (sh3, mig3) with
      | _ -> ()
      | exception Sched.Deadlock msg -> fail ("deadlock after re-recovery: " ^ msg)
      | exception e -> fail ("re-recovered engine raised " ^ Printexc.to_string e));
      (sh3, mig3, model)
  end

(* ------------------------------------------------------------------ *)
(* snapshot: read-only snapshots across power cuts                    *)
(* ------------------------------------------------------------------ *)

(* Pair-writer transactions — every commit writes the same value to both
   slots of one pair — against a concurrent read-only snapshot reader
   alternating volatile and durable-only mode.  Every completed read-set
   must satisfy va = vb: a reader whose epoch extension spans a writer's
   commit must retry or see none of its writes (the
   [Skip_snapshot_validate] mutant slides the epoch forward without
   revalidating and tears).  A durable-mode read of value v proves v
   transactions on that pair were durable, so recovery must find at least
   v — and never more than were committed. *)

let snapshot_npairs = 4

let sn_slot_a p = 8 + (16 * p)

let sn_slot_b p = sn_slot_a p + 8

let snapshot_run ctx at =
  let txs = int_param at "txs" in
  let cfg = batch_cfg ~fault:ctx.mutant in
  let nthreads = cfg.Config.nthreads in
  let nwriters = nthreads - 1 in
  let p, _ = Dude_ptm.Stm.ptm cfg in
  let nvm = Option.get p.Ptm.nvm in
  let last_d = ref 0 and err = ref None in
  let report r = if !err = None then err := Some r in
  arm ctx nvm ~sample:(fun () ->
      let d = p.Ptm.durable_id () in
      if d < !last_d then report (Printf.sprintf "durable id regressed from %d to %d" !last_d d);
      last_d := max !last_d d);
  let committed = Array.make snapshot_npairs 0 in
  (* Per pair: the largest value a completed durable-mode read returned. *)
  let durable_seen = Array.make snapshot_npairs 0 in
  let completed =
    guard ctx (fun () ->
        Sched.run (fun () ->
            p.Ptm.start ();
            let writers_done = ref 0 in
            for th = 0 to nwriters - 1 do
              ignore
                (Sched.spawn (Printf.sprintf "snapshot-writer-%d" th) (fun () ->
                     for i = 1 to txs do
                       let pair = (th + (nwriters * i)) mod snapshot_npairs in
                       match
                         p.Ptm.atomically ~thread:th (fun tx ->
                             let v = Int64.add (tx.Ptm.read (sn_slot_a pair)) 1L in
                             tx.Ptm.write (sn_slot_a pair) v;
                             tx.Ptm.write (sn_slot_b pair) v)
                       with
                       | Some ((), _) -> committed.(pair) <- committed.(pair) + 1
                       | None -> ()
                     done;
                     incr writers_done))
            done;
            let reader_done = ref false in
            ignore
              (Sched.spawn "snapshot-reader" (fun () ->
                   let durable = ref false in
                   while !writers_done < nwriters do
                     durable := not !durable;
                     (* All [a] halves first, then all [b] halves: a writer
                        committing pair [q] anywhere in between bumps both
                        stripes past the epoch, so the [b] read triggers an
                        extension — which must revalidate the recorded [a]
                        (and restart), or tear. *)
                     match
                       p.Ptm.atomically_ro ~durable:!durable ~thread:(nthreads - 1) (fun tx ->
                           let read slot =
                             Array.init snapshot_npairs (fun q -> tx.Ptm.read (slot q))
                           in
                           let va = read sn_slot_a in
                           let vb = read sn_slot_b in
                           (va, vb))
                     with
                     | Some ((va, vb), epoch) ->
                       tally ctx "snapshot reads" 1;
                       for q = 0 to snapshot_npairs - 1 do
                         if va.(q) <> vb.(q) then
                           report
                             (Printf.sprintf
                                "torn snapshot read-set: pair %d is %Ld/%Ld at epoch %d (%s mode)" q
                                va.(q) vb.(q) epoch
                                (if !durable then "durable" else "volatile"));
                         if !durable then
                           durable_seen.(q) <- max durable_seen.(q) (Int64.to_int va.(q))
                       done
                     | None -> ()
                   done;
                   reader_done := true));
            Sched.wait_until ~label:"snapshot workers done" (fun () ->
                !writers_done = nwriters && !reader_done);
            p.Ptm.drain ();
            p.Ptm.stop ()))
  in
  judge !err;
  Nvm.crash nvm;
  match Dude_ptm.Stm.attach_ptm cfg nvm with
  | p2, _, _ -> (p2.Ptm.peek, committed, durable_seen, completed <> None)
  | exception e -> fail ("recovery raised " ^ Printexc.to_string e)

let snapshot_oracle _ (peek, committed, durable_seen, quiescent) =
  let verdict = ref None in
  let fail r = if !verdict = None then verdict := Some r in
  for pr = 0 to snapshot_npairs - 1 do
    let ra = Int64.to_int (peek (sn_slot_a pr)) and rb = Int64.to_int (peek (sn_slot_b pr)) in
    if ra <> rb then fail (Printf.sprintf "recovered pair %d is torn: %d/%d" pr ra rb);
    if ra < durable_seen.(pr) then
      fail
        (Printf.sprintf "durable-mode snapshot read lost: pair %d read %d, recovery found %d" pr
           durable_seen.(pr) ra);
    if ra > committed.(pr) then
      fail
        (Printf.sprintf "phantom writes: pair %d recovered %d, only %d committed" pr ra
           committed.(pr));
    if quiescent && ra <> committed.(pr) then
      fail
        (Printf.sprintf "quiescent stop lost writes: pair %d is %d, committed %d" pr ra
           committed.(pr))
  done;
  !verdict

(* ------------------------------------------------------------------ *)
(* serve: the serving front end, acked-prefix oracle                  *)
(* ------------------------------------------------------------------ *)

(* One closed-loop client session per pair drives dense increments
   through the bounded queue, admission gate, DRR dispatch and
   durable-watermark acker; each write of value v stamps both slots of its
   pair, and the client records v as acked only once its reply arrives.
   After re-attach: no half-applied request (both slots agree), no acked
   request lost (a reply is a durability promise — the
   [Skip_admission_gate] mutant releases replies at commit instead of the
   durable watermark), no phantom beyond the largest submitted value, and
   with no cut every pair at exactly txs. *)

module Srv = Dudetm_serve.Serve.Make (Dudetm_tm.Tinystm)
module Serve = Dudetm_serve.Serve

let serve_nshards = 2

let serve_ntenants = 2

let serve_npairs = 4

(* Pair [p] lives on shard [p mod serve_nshards]; its two slots sit past
   the root word at a stride that keeps pairs on one shard apart. *)
let sv_shard_of p = p mod serve_nshards

let sv_slot_a p = 8 + (16 * (p / serve_nshards))

let sv_slot_b p = sv_slot_a p + 8

(* Small queue and tight hysteresis so the campaign exercises shedding
   and gate transitions, not just the happy path. *)
let serve_scfg =
  {
    Serve.queue_capacity = 8;
    trip_depth = 6;
    untrip_depth = 2;
    drr_quantum = 2;
    slots_per_session = 2;
    workers_per_shard = 2;
  }

let serve_app =
  {
    Srv.shard_of = (fun key -> sv_shard_of (Int64.to_int key));
    write =
      (fun tx ~shard ~key ~payload ->
        let p = Int64.to_int key in
        Srv.Sh.write tx ~shard (sv_slot_a p) payload;
        Srv.Sh.write tx ~shard (sv_slot_b p) payload);
    read =
      (fun tx ~shard ~key ->
        let p = Int64.to_int key in
        let a = Srv.Sh.read tx ~shard (sv_slot_a p) in
        let b = Srv.Sh.read tx ~shard (sv_slot_b p) in
        if Int64.equal a b then a else -1L);
  }

let serve_run ctx at =
  let txs = int_param at "txs" in
  let cfg =
    Dudetm_serve.Serve_load.engine_cfg ~fault:ctx.mutant
      ~workers:serve_scfg.Serve.workers_per_shard ()
  in
  let sh = Srv.Sh.create ~nshards:serve_nshards cfg in
  let err = ref None in
  let report r = if !err = None then err := Some r in
  arm ctx sh;
  let srv = Srv.create ~scfg:serve_scfg ~app:serve_app ~ntenants:serve_ntenants sh in
  let acked = Array.make serve_npairs 0 in
  let submitted = Array.make serve_npairs 0 in
  let shed = ref 0 in
  let completed =
    guard ctx (fun () ->
        Sched.run (fun () ->
            Srv.start srv;
            let clients_done = ref 0 in
            for p = 0 to serve_npairs - 1 do
              ignore
                (Sched.spawn (Printf.sprintf "serve-client-%d" p) (fun () ->
                     let tenant = p mod serve_ntenants in
                     let key = Int64.of_int p in
                     let wd =
                       Srv.make_desc ~tenant ~session:p (Serve.Write { key; payload = 0L })
                     in
                     let rd = Srv.make_desc ~tenant ~session:p (Serve.Read { key }) in
                     for v = 1 to txs do
                       submitted.(p) <- v;
                       let payload = Int64.of_int v in
                       let rec attempt () =
                         Srv.set_op wd (Serve.Write { key; payload });
                         if not (Srv.submit srv wd) then begin
                           incr shed;
                           Sched.advance 2_000;
                           attempt ()
                         end
                         else
                           match Srv.await wd with
                           | Serve.R_executed _ -> acked.(p) <- v
                           | Serve.R_aborted -> attempt ()
                           | _ -> report "write reply of unexpected shape"
                       in
                       attempt ();
                       (* Opportunistic snapshot read: the pair must never
                          be torn in flight either. *)
                       if v land 3 = 0 then begin
                         Srv.set_op rd (Serve.Read { key });
                         if Srv.submit srv rd then
                           match Srv.await rd with
                           | Serve.R_value r when Int64.equal r (-1L) ->
                             report (Printf.sprintf "torn in-flight read of pair %d" p)
                           | _ -> ()
                       end
                     done;
                     incr clients_done))
            done;
            Sched.wait_until ~label:"serve clients done" (fun () -> !clients_done = serve_npairs);
            Srv.stop srv))
  in
  tally ctx "acked requests" (Array.fold_left ( + ) 0 acked);
  tally ctx "shed" !shed;
  judge !err;
  let nvms = Array.init serve_nshards (Srv.Sh.nvm sh) in
  Array.iter Nvm.crash nvms;
  match Srv.Sh.attach ~nshards:serve_nshards cfg nvms with
  | sh2, _ -> (sh2, acked, submitted, completed <> None)
  | exception e -> fail ("recovery raised " ^ Printexc.to_string e)

let serve_oracle at (sh2, acked, submitted, quiescent) =
  let txs = int_param at "txs" in
  let verdict = ref None in
  let fail r = if !verdict = None then verdict := Some r in
  for p = 0 to serve_npairs - 1 do
    let e = Srv.Sh.engine sh2 (sv_shard_of p) in
    let ra = Int64.to_int (Srv.Engine.heap_read_u64 e (sv_slot_a p)) in
    let rb = Int64.to_int (Srv.Engine.heap_read_u64 e (sv_slot_b p)) in
    if ra <> rb then fail (Printf.sprintf "half-applied request: pair %d recovered %d/%d" p ra rb);
    if ra < acked.(p) then
      fail
        (Printf.sprintf "acked request lost: pair %d acked %d, recovery found %d" p acked.(p)
           ra);
    if ra > submitted.(p) then
      fail
        (Printf.sprintf "phantom request: pair %d recovered %d, submitted %d" p ra
           submitted.(p));
    if quiescent && ra <> txs then
      fail (Printf.sprintf "quiescent stop lost requests: pair %d is %d, expected %d" p ra txs)
  done;
  !verdict

(* ------------------------------------------------------------------ *)
(* The campaign table and the replay grammar                          *)
(* ------------------------------------------------------------------ *)

let no_post _ = None

let no_shrink _ f = f

let one_dev n = [| n |]

let int_ok v = match int_of_string_opt v with Some n -> n >= 0 | None -> false

let float_ok v = Option.is_some (float_of_string_opt v)

let one_of l v = List.mem v l

let coord ?(valid = int_ok) flag kind = { flag; kind; valid }

type t = Campaign : ('sys, 'obs) campaign -> t

let campaigns =
  [
    Campaign
      {
        name = "explore";
        doc = "";
        coords =
          [
            coord "system" (Each (List.map fst systems)) ~valid:(fun s -> List.mem_assoc s systems);
            coord "workload" Sweep ~valid:(one_of [ "counter"; "overlap"; "counter1" ]);
            coord "threads" (Fixed "3");
            coord "txs" (Fixed "2");
            coord "sched" Case ~valid:valid_sched;
            coord "evict" (Fixed "0") ~valid:float_ok;
            coord "evict-seed" (Fixed "1");
          ];
        depth = 1;
        devices = one_dev;
        run = explore_run;
        oracle = (fun _ -> verify_noted);
        plan = explore_plan;
        post = no_post;
        shrink = explore_shrink;
      };
    Campaign
      {
        name = "media";
        doc =
          "Inject seeded bit rot, poison and stuck lines into the persisted image after \
           crashes, scrub, recover: every corruption must be repaired or reported.";
        coords =
          [
            coord "system" (Fixed "dude") ~valid:(( = ) "dude");
            coord "media-seed" Case;
            coord "faults" Case ~valid:(one_of [ "heap"; "mixed" ]);
          ];
        depth = 1;
        devices = one_dev;
        run = media_run;
        oracle = media_oracle;
        plan = media_plan;
        post = no_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "recovery";
        doc =
          "Cut power inside attach and scrub, and inside the recovery of a crashed \
           recovery: every leg must converge to the uninterrupted recovery.";
        coords = [ coord "leg" Case ~valid:(one_of [ "attach"; "scrub" ]) ];
        depth = 3;
        devices = one_dev;
        run = recovery_run;
        oracle = recovery_oracle;
        plan = recovery_plan;
        post = no_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "daemons";
        doc =
          "Inject seeded transient Persist/Reproduce faults: supervised restarts may move \
           only the restart counters, never the recovered state.";
        coords = [ coord "daemon-seed" Case; coord "fault-rate" (Fixed "0.25") ~valid:float_ok ];
        depth = 1;
        devices = one_dev;
        run = daemons_run;
        oracle = (fun _ -> verify);
        plan = daemons_plan;
        post = daemons_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "shards";
        doc =
          "Cut power during cross-shard transfers on every shard's device: every transfer \
           must be all-or-nothing and every vector-watermark acknowledgement must survive.";
        coords = [ coord "shard-count" (Fixed "3"); coord "txs" (Fixed "10") ];
        depth = 1;
        devices = shard_devices;
        run = shards_run;
        oracle = shards_oracle;
        plan = cut_plan ?deep:None;
        post = no_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "batch";
        doc =
          "Cut power at the boundaries of the pipelined group commit, then re-crash the \
           recovered engine: recovery must be exactly the acknowledged durable prefix.";
        coords = [ coord "txs" (Fixed "12") ];
        depth = 2;
        devices = one_dev;
        run = batch_run;
        oracle = batch_oracle;
        plan = cut_plan ~deep:15;
        post = no_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "replica";
        doc =
          "Kill the primary while the redo log ships to K replicas over clean, faulty and \
           partitioned links, promote: no quorum-acked transaction may be lost.";
        coords =
          [
            coord "replicas" (Fixed "3");
            coord "txs" (Fixed "10");
            coord "scenario" Sweep ~valid:(one_of replica_scenarios);
          ];
        depth = 1;
        devices = (fun prim -> [| Rep.Engine.nvm prim |]);
        run = replica_run;
        oracle = replica_oracle;
        plan = replica_plan;
        post = no_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "migrate";
        doc =
          "Cut power during a live 4->8 resharding, and inside recovery's own handoff \
           seals: every key on exactly one shard, no acknowledged write lost.";
        coords = [];
        depth = 2;
        devices = (fun sh -> Array.init migrate_nshards (Mig.Sh.nvm sh));
        run = migrate_run;
        oracle = (fun _ -> mg_oracle ~final:true);
        plan = cut_plan ~deep:20;
        post = no_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "snapshot";
        doc =
          "Run volatile and durable snapshot readers against pair writers through power \
           cuts: read-sets never tear, durable-mode values survive recovery.";
        coords = [ coord "txs" (Fixed "12") ];
        depth = 1;
        devices = one_dev;
        run = snapshot_run;
        oracle = snapshot_oracle;
        plan = cut_plan ?deep:None;
        post = no_post;
        shrink = no_shrink;
      };
    Campaign
      {
        name = "serve";
        doc =
          "Drive requests through the serving front end's queue, admission gate and \
           durable-watermark acker through power cuts: no acknowledged request lost.";
        coords = [ coord "txs" (Fixed "10") ];
        depth = 1;
        devices = (fun sh -> Array.init serve_nshards (Srv.Sh.nvm sh));
        run = serve_run;
        oracle = serve_oracle;
        plan = cut_plan ?deep:None;
        post = no_post;
        shrink = no_shrink;
      };
  ]

let campaign_docs = List.map (fun (Campaign c) -> (c.name, c.doc)) campaigns

let coordinates =
  [
    ( "system",
      "explore: one system (dude, dude-combine, dude-htm, mnemosyne, nvml); all if absent. \
       media: dude." );
    ("workload", "explore: counter, overlap or counter1; every applicable one if absent.");
    ("threads", "explore: worker threads.");
    ( "txs",
      "Transactions per thread (explore, batch, replica, snapshot), cross-shard transfers \
       (shards) or requests per session (serve)." );
    ("sched", "explore: schedule of the case to replay: default, seed:N or prefix:c0,c1,...");
    ( "evict",
      "explore: each dirty line leaks into the persisted image with this probability at \
       every power cut (0 disables)." );
    ("evict-seed", "explore: RNG seed of the eviction adversary.");
    ("media-seed", "media: fault-injection seed of the case to replay.");
    ("faults", "media: fault mix of the case to replay (heap or mixed).");
    ("leg", "recovery: the recovery step the case cuts (attach or scrub).");
    ("daemon-seed", "daemons: seed of the case to replay.");
    ("fault-rate", "daemons: per-opportunity transient-fault probability.");
    ("shard-count", "shards: independent regions.");
    ("replicas", "replica: replica count K.");
    ("scenario", "replica: link scenario (clean, faulty or partition); all if absent.");
    ( "crash-at",
      "Replay: cut power at this persist boundary of the first life (0: run to quiescence)." );
    ( "crash2",
      "Replay: cut at this boundary of the second life, counted after the first cut (batch, \
       migrate; recovery: inside the leg)." );
    ("crash3", "Replay (recovery): cut at this boundary of the attach after the cut leg.");
  ]

let cut_flags = [ "crash-at"; "crash2"; "crash3" ]

let find name =
  match List.find_opt (fun (Campaign c) -> c.name = name) campaigns with
  | Some c -> c
  | None -> invalid_arg ("Check: unknown campaign " ^ name)

(* The one grammar: every coordinate must be declared by the campaign; a
   cut or a case coordinate selects the replay of exactly one case, which
   then needs every sweep and case coordinate; otherwise the given sweep
   coordinates restrict the sweep. *)
let coordinate c args =
  List.iter
    (fun (k, v) ->
      match List.find_opt (fun co -> co.flag = k) c.coords with
      | Some co ->
        if not (co.valid v) then invalid_arg (Printf.sprintf "--%s %s: invalid value" k v)
      | None -> (
        match List.find_index (( = ) k) cut_flags with
        | Some i when i < c.depth ->
          if not (int_ok v) then invalid_arg (Printf.sprintf "--%s %s: not a boundary" k v)
        | _ -> invalid_arg (Printf.sprintf "--%s is not a coordinate of the %s campaign" k c.name)))
    args;
  let vector =
    List.init c.depth (fun i ->
        Option.fold ~none:0 ~some:int_of_string (List.assoc_opt (List.nth cut_flags i) args))
  in
  let last = List.fold_left max (-1) (List.mapi (fun i k -> if k > 0 then i else -1) vector) in
  let vector = List.filteri (fun i _ -> i <= last) vector in
  let replay =
    List.exists (fun f -> List.mem_assoc f args) cut_flags
    || List.exists (fun co -> co.kind = Case && List.mem_assoc co.flag args) c.coords
  in
  let at =
    List.filter_map
      (fun co ->
        match (List.assoc_opt co.flag args, co.kind) with
        | Some v, _ | None, Fixed v -> Some (co.flag, v)
        | None, _ when replay ->
          invalid_arg (Printf.sprintf "replaying one %s case needs --%s" c.name co.flag)
        | None, _ -> None)
      c.coords
  in
  (at, if replay then Some vector else None)

let expand name args =
  let (Campaign c) = find name in
  match coordinate c args with
  | _, Some _ -> [ args ]
  | _, None -> (
    match
      List.find_opt
        (fun co ->
          (match co.kind with Each _ -> true | _ -> false) && not (List.mem_assoc co.flag args))
        c.coords
    with
    | Some { flag; kind = Each choices; _ } -> List.map (fun v -> args @ [ (flag, v) ]) choices
    | _ -> [ args ])

let run ?(log = ignore) ?(budget = budget_of_env ()) ?(mutant = Config.No_fault) name args =
  let (Campaign c) = find name in
  match coordinate c args with
  | at, Some vector -> (
    let verdict, lives, tallies = case c ~mutant at vector in
    if List.length lives < List.length vector then
      invalid_arg
        (Printf.sprintf
           "--%s names a boundary of a life that never ran: the cut before it did not fire"
           (List.nth cut_flags (List.length vector - 1)));
    match verdict with
    | Some reason -> Fail { campaign = c.name; mutant; params = at; cuts = vector; reason }
    | None ->
      let boundaries = List.fold_left ( + ) 0 lives in
      Pass { campaign = c.name; given = at; runs = 1; boundaries; tallies })
  | at, None -> (
    match sweep ~log c ~mutant ~given:at (c.plan budget at) with
    | Fail f -> Fail (c.shrink (first_failing c ~mutant ~scan:120) f)
    | Pass r -> Pass r)

let replay_line (f : failure) =
  let (Campaign c) = find f.campaign in
  let flag k v = Printf.sprintf " --%s %s" k v in
  String.concat ""
    ((if c.name = "explore" then "dudetm check" else "dudetm check --" ^ c.name)
     :: (if f.mutant = Config.No_fault then "" else flag "mutate" (mutant_name f.mutant))
     :: List.filter_map
          (fun co -> Option.map (flag co.flag) (List.assoc_opt co.flag f.params))
          c.coords
    @
    (* A clean-run failure still names one case: "--crash-at 0" unless a
       case coordinate already does. *)
    if f.cuts = [] && not (List.exists (fun co -> co.kind = Case) c.coords) then
      [ flag "crash-at" "0" ]
    else
      List.mapi
        (fun i k -> if k > 0 then flag (List.nth cut_flags i) (string_of_int k) else "")
        f.cuts)

let parse_replay line =
  let line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line in
  let rec go name mutant args = function
    | [] -> (name, mutant, List.rev args)
    | ("dudetm" | "check") :: rest -> go name mutant args rest
    | "--mutate" :: m :: rest -> go name (mutant_of_name m) args rest
    | f :: rest when List.exists (fun (n, _) -> f = "--" ^ n) campaign_docs ->
      go (String.sub f 2 (String.length f - 2)) mutant args rest
    | f :: v :: rest when String.starts_with ~prefix:"--" f ->
      go name mutant ((String.sub f 2 (String.length f - 2), v) :: args) rest
    | w :: _ -> invalid_arg ("Check: cannot parse replay word " ^ w)
  in
  go "explore" Config.No_fault [] (List.filter (( <> ) "") (String.split_on_char ' ' line))

let summary = function
  | Fail f ->
    Printf.sprintf "%s campaign: FAIL: %s\n  replay: %s" f.campaign f.reason (replay_line f)
  | Pass r ->
    let (Campaign c) = find r.campaign in
    let named =
      List.filter_map
        (fun co ->
          match co.kind with
          | Fixed _ | Case -> None
          | Each _ | Sweep ->
            Option.map (Printf.sprintf "%s %s: " co.flag) (List.assoc_opt co.flag r.given))
        c.coords
    in
    Printf.sprintf "%s campaign: PASS (%s%d runs, %d boundaries%s)" r.campaign
      (String.concat "" named) r.runs r.boundaries
      (String.concat "" (List.map (fun (k, n) -> Printf.sprintf ", %d %s" n k) r.tallies))
