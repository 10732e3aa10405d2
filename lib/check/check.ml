module Nvm = Dudetm_nvm.Nvm
module Rng = Dudetm_sim.Rng
module Sched = Dudetm_sim.Sched
module Inject = Dudetm_sim.Inject
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

type budget = Smoke | Scaled of int | Deep

(* Unset or empty selects the default; any other value must be valid. *)
let budget_of_env () =
  let env var ~expect ok =
    match Sys.getenv_opt var with
    | None | Some "" -> None
    | Some v when ok v -> Some v
    | Some v -> invalid_arg (Printf.sprintf "%s=%S: expected %s" var v expect)
  in
  let positive v = match int_of_string_opt v with Some m -> m > 0 | None -> false in
  let deep = env "DUDETM_CHECK_DEEP" ~expect:"0 or 1" (fun v -> v = "0" || v = "1") in
  let scale = env "DUDETM_CHECK_BUDGET" ~expect:"a positive integer" positive in
  if deep = Some "1" then Deep else Scaled (Option.fold ~none:1 ~some:int_of_string scale)

(* Power cuts per clean run for the cut-sweep campaigns. *)
let cut_sites = function Deep -> 600 | Scaled m -> 60 * m | Smoke -> 60

type params = (string * string) list

let param p k =
  match List.assoc_opt k p with Some v -> v | None -> invalid_arg ("Check: missing --" ^ k)

let int_param p k = int_of_string (param p k)

let set k v p = (k, v) :: List.remove_assoc k p

type failure = {
  campaign : string;
  mutant : Inject.mutant;
  params : params;
  cuts : int list;
  reason : string;
}

(* Counters in first-seen order, e.g. the serve campaign's acked requests. *)
let add_tally tallies (k, n) =
  if List.mem_assoc k tallies then
    List.map (fun (k', m) -> (k', if k' = k then m + n else m)) tallies
  else tallies @ [ (k, n) ]

(* Fibers [name-0 .. name-(n-1)] each run [work i k] for k = 1..txs;
   [also] may spawn fibers after them.  Returns once all have finished. *)
let workers ?(also = fun () -> []) name n ~txs work =
  let ids =
    List.init n (fun i ->
        Sched.spawn (Printf.sprintf "%s-%d" name i) (fun () ->
            for k = 1 to txs do
              work i k
            done))
  in
  Sched.join ~label:(name ^ "s done") (ids @ also ())

(* The lives of one case.  A campaign supplies its built system [sys],
   its [devices], its [drive], its [watermark] (History watermarks, read
   at every boundary), its [attach] after a power loss ([None]: nothing
   recovered yet) and its [read] of the recovered image.  Life 1 drives
   [sys] and cuts power at [vector]'s first entry (0 or none: uncut), the
   next life at the next.  When a drive ends, a [quiescent] return
   acknowledges every commit, every device loses power (leaking dirty
   lines under [evict]) and the attached image is judged against the
   history, then against recovery's [durable] report.  A cut system is
   rebased on the recovered cut and driven again while [drives] allows;
   otherwise the campaign's [verdict] has the last word.  Facts: [setup]
   starts every drive, before its life is armed unless an attach armed
   it, and [stop] ends it once disarmed.  [arm_attach] says which attaches
   open a life: [`Never] (the next drive arms it), [`Always], or
   [`After_first_cut] — only the attach after life 1's cut, and no drive
   after it is armed.  A watermark that goes down fails the case, named
   by [name]. *)
let lives ~vector ?(setup = ignore) ?(stop = ignore) ?(watermark = fun _ _ -> ())
    ?(name = fun _ -> "durable id") ?(durable = fun _ -> None) ?(verdict = fun _ v -> v)
    ?(quiescent = fun () -> true) ?(tallies = fun () -> []) ?(strategy = Sched.min_clock) ?evict
    ?(arm_attach = `Never) ?(drives = 1) ~devices ~attach ~read h sys drive =
  let finished = ref [] and sites = ref 0 and armed = ref [||] in
  let live = ref (Some sys) in
  (* The history keeps each watermark's largest value this life. *)
  let see w v =
    let top = History.watermark h w in
    if v < top then fail (Printf.sprintf "%s regressed from %d to %d" (name w) top v);
    History.observe h w v
  in
  let observe () = match !live with Some s -> watermark s see | None -> () in
  let disarm () =
    if Array.length !armed > 0 then begin
      Array.iter (fun n -> Nvm.set_persist_hook n None) !armed;
      armed := [||];
      finished := !sites :: !finished
    end
  in
  let arm s =
    disarm ();
    let cut = Option.value (List.nth_opt vector (List.length !finished)) ~default:0 in
    sites := 0;
    armed := devices s;
    let hook () =
      incr sites;
      observe ();
      if !sites = cut then raise Crash_now
    in
    Array.iter (fun n -> Nvm.set_persist_hook n (Some hook)) !armed
  in
  (* [Some v] when [f] returned, [None] when the power was cut. *)
  let guard what f =
    match f () with
    | v -> Some v
    | exception e -> (
      disarm ();
      match e with
      | Crash_now -> None
      | Failed _ -> raise e
      | Sched.Deadlock msg -> fail ("deadlock: " ^ msg)
      | e -> fail (what ^ " raised " ^ Printexc.to_string e))
  in
  let crash s =
    live := None;
    Array.iter
      (Nvm.crash ?evict_fraction:(Option.map fst evict)
         ?rng:(Option.map (fun (_, seed) -> Rng.create seed) evict))
      (devices s)
  in
  let judge s =
    let cut, v = History.check h ~read:(read s) in
    let k = History.position cut 0 in
    match (v, durable s) with
    | None, Some d when d <> k ->
      (cut, Some (Printf.sprintf "recovery reports durable id %d but the data image shows %d" d k))
    | _ -> (cut, v)
  in
  let survivors s =
    match List.concat_map Nvm.last_crash_survivors (Array.to_list (devices s)) with
    | _ when evict = None -> ""
    | [] -> " (no dirty lines survived the cut)"
    | l -> " (surviving lines: " ^ String.concat "," (List.map string_of_int l) ^ ")"
  in
  (* The [n]th drive; an attach may have armed its life already. *)
  let rec go n s =
    let completed =
      guard "engine" (fun () ->
          Sched.run ~strategy (fun () ->
              setup s;
              if Array.length !armed = 0 && (n = 1 || arm_attach <> `After_first_cut) then arm s;
              drive s;
              disarm ();
              stop s))
    in
    observe ();
    if completed <> None && quiescent () then History.quiesce h;
    crash s;
    recover ~again:(completed = None && n < drives) n s
  and recover ~again n s =
    (match arm_attach with
    | `Always -> arm s
    | `After_first_cut when again && List.length !finished = 1 -> arm s
    | `After_first_cut | `Never -> ());
    match guard "recovery" (fun () -> attach s) with
    | None ->
      crash s;
      recover ~again n s
    | Some None -> recover ~again n s
    | Some (Some s') when again ->
      live := Some s';
      let cut, v = judge s' in
      Option.iter fail v;
      History.truncate h cut;
      go (n + 1) s'
    | Some (Some s') ->
      disarm ();
      verdict s' (snd (judge s')) |> Option.map (fun r -> r ^ survivors s')
  in
  let v = try go 1 sys with Failed reason -> Some reason in
  disarm ();
  (v, List.rev !finished, tallies ())

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

(* [run] executes the lives of one case under a cut vector. *)
type campaign = {
  name : string;
  doc : string;
  coords : coord list;
  depth : int;
  run : params -> int list -> string option * int list * (string * int) list;
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

(* The case's lives run with its mutant armed, and only they. *)
let case c ~mutant at vector = Inject.with_ ~mutant (fun () -> c.run at vector)

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

(* A system under test; [durable] is its recovery's own durable report
   (none before a recovery, and for systems that recover in place). *)
type instance = { ptm : Ptm.t; nvm : Nvm.t; recover : unit -> instance; durable : int option }

(* Small layouts keep a single checked run in the low milliseconds: the
   budgets below run hundreds of them. *)
let dude_cfg ~combine =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads = 3;
    vlog_capacity = 256;
    plog_size = 1 lsl 13;
    meta_size = 8192;
    persist =
      (if combine then Config.Combined { group = 2; compress = true }
       else Config.default.Config.persist);
    reproduce_batch = 4;
    (* checkpoint early and often: ring recycling is where Reproduce
       ordering bugs become observable *)
    checkpoint_records = 2;
    seed = 7;
  }

let dude_instance ptm attach cfg =
  let p, _ = ptm cfg in
  let nvm = Option.get p.Ptm.nvm in
  let rec recover () =
    let p2, _, report = attach cfg nvm in
    { ptm = p2; nvm; recover; durable = Some report.Dudetm.durable }
  in
  { ptm = p; nvm; recover; durable = None }

let stm_instance = dude_instance Dude_ptm.Stm.ptm Dude_ptm.Stm.attach_ptm

(* Mnemosyne and NVML recover in place and report no durable ID. *)
let baseline_instance ptm nvm recover =
  let rec inst = { ptm; nvm; recover = (fun () -> recover (); inst); durable = None } in
  inst

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
  baseline_instance (Mnemosyne.ptm_of m) (Mnemosyne.nvm m) (fun () -> ignore (Mnemosyne.recover m))

let nvml_instance () =
  let n =
    Nvml.create
      {
        Nvml.default_config with
        Nvml.heap_size = 1 lsl 16;
        nthreads = 3;
        log_size = 1 lsl 13;
      }
  in
  baseline_instance (Nvml.ptm_of n) (Nvml.nvm n) (fun () -> ignore (Nvml.recover n))

(* Mutants seed bugs into the software-TM DudeTM variants only: the
   other systems live their whole lives disarmed ([false]). *)
let systems =
  [
    ("dude", (true, fun () -> stm_instance (dude_cfg ~combine:false)));
    ("dude-combine", (true, fun () -> stm_instance (dude_cfg ~combine:true)));
    ( "dude-htm",
      ( false,
        fun () ->
          dude_instance Dude_ptm.Htm_based.ptm Dude_ptm.Htm_based.attach_ptm
            (dude_cfg ~combine:false) ) );
    ("mnemosyne", (false, mnemosyne_instance));
    ("nvml", (false, nvml_instance));
  ]

(* ------------------------------------------------------------------ *)
(* Counter-family workloads                                           *)
(* ------------------------------------------------------------------ *)

(* Counter family: transaction number i (in serialization order) writes i
   to the root counter (address 0) and to its stamped slots j (address
   8 + 8j), so i is its position on stream 0 and the durable ID that
   acknowledges it, and every value it writes is unique to it. *)
let stamp8 i = [ i mod 8 ]

let counter_tx h ~worker ~stamp read write =
  let c1 = 1 + Int64.to_int (read 0) in
  let v = Int64.of_int c1 in
  let ws = List.map (fun j -> (8 + (8 * j), v)) (stamp c1) @ [ (0, v) ] in
  List.iter (fun (a, v) -> write a v) ws;
  History.attempt h ~worker ~ack:(History.At (0, c1)) ~pos:(fun _ -> c1)
    (List.map (fun (a, v) -> ((0, a), v)) ws)

(* Record a driver's outcome for the worker's attempt: commit on [Some r]
   (with the ack [ack r], if given), abandon on [None].  Returns it. *)
let outcome h ~worker ?ack r =
  (match r with
  | Some v -> History.commit h ~worker ?ack:(Option.map (fun f -> f v) ack) ()
  | None -> History.abandon h ~worker);
  r

(* Stamps and declared write set of each explore workload. *)
let workload_of_name = function
  | "counter" -> (stamp8, None)
  (* Adversarial: every transaction stamps two overlapping slots. *)
  | "overlap" -> ((fun i -> [ i mod 5; (i + 1) mod 5 ]), None)
  (* The root counter alone, with a declared write set: the only workload
     expressible as a static transaction (NVML). *)
  | "counter1" -> ((fun _ -> []), Some [ 0 ])
  | s -> invalid_arg ("Check: unknown workload " ^ s)

(* The lives of an instance: its one device, its recovery, its heap, its
   durable ID as the watermark and its recovery's durable report.  Each
   drive starts it, runs worker fibers doing [work i k] for k = 1..txs
   ([also] spawns after them), then drains and stops it.  The work
   defaults to the counter family, with a monitor fiber beside it that
   polls the durable ID between boundaries too: it may never go down nor
   pass the last issued tid, a verdict that comes before the history's
   ([verdict] comes after both).  Torn log records
   are covered implicitly: a recovery that accepts one replays garbage,
   which no cut of the history explains. *)
let instance_lives ~vector ?(h = History.create ()) ?(monitor = true) ?wset ?(stamp = stamp8)
    ?work ?also ?(verdict = Fun.id) ?(attach = fun i -> Some (i.recover ()))
    ?(durable = fun i -> i.durable) ?tallies ?strategy ?evict ?arm_attach ?drives ~threads ~txs
    inst =
  let alarm = ref None in
  let counter (p : Ptm.t) th _ =
    ignore
      (outcome h ~worker:th
         (p.Ptm.atomically ~thread:th ?wset (fun tx ->
              counter_tx h ~worker:th ~stamp tx.Ptm.read tx.Ptm.write)))
  in
  let drive i =
    let p = i.ptm in
    p.Ptm.start ();
    if monitor then
      ignore
        (Sched.spawn ~daemon:true "check-monitor" (fun () ->
             let last = ref 0 in
             try
               while true do
                 let d = p.Ptm.durable_id () in
                 let l = p.Ptm.last_tid () in
                 if !alarm = None then
                   if d < !last then
                     alarm := Some (Printf.sprintf "durable id regressed from %d to %d" !last d)
                   else if d > l then
                     alarm := Some (Printf.sprintf "durable id %d ahead of last issued tid %d" d l);
                 last := max !last d;
                 Sched.advance 100
               done
             with Sched.Killed -> ()));
    workers ?also "check-worker" threads ~txs (Option.value work ~default:(counter p));
    p.Ptm.drain ();
    p.Ptm.stop ()
  in
  lives ~vector ~attach ~durable ?tallies ?strategy ?evict ?arm_attach ?drives
    ~devices:(fun i -> [| i.nvm |])
    ~read:(fun i (_, a) -> i.ptm.Ptm.peek a)
    ~watermark:(fun i see -> see 0 (i.ptm.Ptm.durable_id ()))
    ~verdict:(fun _ v -> verdict (match !alarm with Some _ as m -> m | None -> v))
    h inst drive

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
  | Scaled m ->
    {
      crash_sites = 40 * m;
      sched_seeds = 3;
      crash_sites_per_seed = 8 * m;
      exhaustive_runs = 24 * m;
      exhaustive_depth = (if m = 1 then 6 else 8);
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

let explore_run at vector =
  let stamp, wset = workload_of_name (param at "workload") in
  let evict = evict_of at in
  let strategy = strategy_of (param at "sched") in
  let seeded, instance = List.assoc (param at "system") systems in
  let life () =
    instance_lives ~vector ~stamp ?wset ~strategy ?evict
      ~threads:(int_param at "threads") ~txs:(int_param at "txs") (instance ())
  in
  if seeded then life () else Inject.with_ ~mutant:No_fault life

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
                    stack := (List.filteri (fun i _ -> i < step) chosen @ [ c ]) :: !stack
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
let media_run at vector =
  let cfg = dude_cfg ~combine:false in
  let descrs = ref [] and reported = ref false and faults = ref 0 in
  let attach i =
    faults :=
      inject_faults cfg i.nvm ~mode:(param at "faults") ~seed:(int_param at "media-seed") ~descrs;
    let sr = Scrub.scrub ~repair:true ~probe_stuck:true cfg i.nvm in
    if not (Scrub.clean sr) then reported := true;
    if sr.Scrub.ckpt = `Fatal then
      (* Both checkpoint slots destroyed: the instance is lost, but
         loudly — that counts as reported, never as silent. *)
      Some { i with ptm = { i.ptm with Ptm.peek = (fun _ -> 0L) }; durable = Some 0 }
    else begin
      let p2, _, report = Dude_ptm.Stm.attach_ptm cfg i.nvm in
      if report.Dudetm.corrupted_records > 0 || report.Dudetm.quarantined_lines > 0 then
        reported := true;
      Some { i with ptm = p2; durable = Some report.Dudetm.durable }
    end
  in
  instance_lives ~vector ~attach
    ~tallies:(fun () -> [ ("faults injected", !faults) ])
    ~verdict:(function
      | Some reason when not !reported ->
        Some (Printf.sprintf "%s (injected: %s)" reason (String.concat " " (List.rev !descrs)))
      | _ -> None)
    ~threads:3 ~txs:4 (stm_instance cfg)

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
  | Smoke ->
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

(* Life 1 runs the workload and cuts it at crash-at (0: quiescence).  Its
   recovery is life 2, the named leg — attach, or the offline scrub with
   repair and stuck-line probes — cut at crash2; every attach opens a life
   (cut at crash3 after the leg), and the first attach that completes
   gives the final verdict.  Its report must equal the uninterrupted
   recovery's field for field, and its image pass the crash oracle. *)
let recovery_run at vector =
  let cfg = dude_cfg ~combine:false in
  let image ?verdict leg vector final =
    let legs = ref leg in
    let attach i =
      let leg = !legs in
      legs := "attach";
      if leg = "scrub" then begin
        ignore (Scrub.scrub ~repair:true ~probe_stuck:true cfg i.nvm);
        None
      end
      else begin
        let p2, _, report = Dude_ptm.Stm.attach_ptm cfg i.nvm in
        final := Some report;
        Some { i with ptm = p2; durable = Some report.Dudetm.durable }
      end
    in
    instance_lives ~vector ~attach ~arm_attach:`Always ?verdict ~threads:3 ~txs:4 (stm_instance cfg)
  in
  let crash = List.filteri (fun i _ -> i = 0) vector in
  let key = (List.find_opt (fun (m, _, _) -> Inject.armed m) Inject.catalogue, crash) in
  let baseline () =
    match Hashtbl.find_opt baselines key with
    | Some b -> b
    | None -> (
      (* The same image recovered once: its lives are not this case's. *)
      let b = ref None in
      let v, _, _ = image "attach" crash b in
      match !b with
      | Some b ->
        Hashtbl.add baselines key b;
        b
      | None -> fail (Option.value v ~default:"uninterrupted recovery failed"))
  in
  let final = ref None in
  image (param at "leg") vector final ~verdict:(fun v ->
      match !final with
      | Some report when report <> baseline () ->
        Some
          (Printf.sprintf "recovery verdict diverged: interrupted %s, uninterrupted %s"
             (report_to_string report) (report_to_string (baseline ())))
      | _ -> v)

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
let daemons_run at vector =
  Inject.with_ ~daemon_fault_rate:(float_of_string (param at "fault-rate")) @@ fun () ->
  let seed = int_param at "daemon-seed" in
  let inst = stm_instance { (dude_cfg ~combine:false) with Config.seed = 7 + seed } in
  let count k = Option.value (List.assoc_opt k (inst.ptm.Ptm.counters ())) ~default:0 in
  instance_lives ~vector
    ~tallies:(fun () ->
      [ ("faults injected", count "daemon_faults"); ("restarts", count "daemon_restarts") ])
    ~threads:3 ~txs:4 inst

let daemons_plan budget at _ =
  Seq.map
    (fun s ->
      point
        (set "daemon-seed" (string_of_int s) at)
        ~single:(fun c -> [ 1 + (s * 7919 mod max 1 c) ]))
    (Seq.init (match budget with Smoke -> 2 | _ -> 4) succ)

(* A sweep in which no daemon ever restarted proves nothing. *)
let daemons_post tallies =
  if Option.value (List.assoc_opt "restarts" tallies) ~default:0 = 0 then
    Some "vacuous sweep: no daemon restart was ever exercised"
  else None

(* ------------------------------------------------------------------ *)
(* shards: cross-shard transfers across independent devices           *)
(* ------------------------------------------------------------------ *)

(* The migration layer's sharded instance: both campaigns share its types. *)
module Mig = Dudetm_shard.Migrate.Make (Dudetm_tm.Tinystm)
module Shard = Mig.Sh

(* Word layout inside every shard's root block (mirrors test_shard.ml):
   0       balance — cross-shard transfers preserve the global sum
   8       single-shard local counter
   16+8*p  pairwise stamp: both sides of a transfer write the same stamp *)
let shb_balance = 0

let shb_local = 8

let shb_pair p = 16 + (8 * p)

let shb_initial = 1_000L

(* Vector-watermark acknowledgements in the history: watermark [s] is
   shard [s]'s effective ID, watermark [nshards] the frontier. *)
let shard_ack nshards = function
  | Shard.Ack_local { shard; tid } -> History.At (shard, tid)
  | Shard.Ack_cross { gtid } -> History.At (nshards, gtid)
  | Shard.Ack_read_only -> History.Never

(* The frontier, then each shard's effective ID. *)
let vector_watermark sh see =
  see (Shard.nshards sh) (Shard.global_frontier sh);
  Array.iteri see (Shard.effective_vector sh)

let vector_name nshards w =
  if w = nshards then "frontier" else Printf.sprintf "shard %d effective id" w

(* Sequential mixed transfers and local bumps, one power cut counted
   across every shard's device.  Each shard is a stream of the history,
   positioned by this sequential driver; a transfer is one cross-stream
   transaction.  The vector watermark sampled at each boundary is what
   was acknowledged when the power went out: recovery may not fall below
   it, on the frontier or on any shard's durable ID. *)
let shards_run at vector =
  let nshards = int_param at "shard-count" and txs = int_param at "txs" in
  if nshards < 2 then invalid_arg "Check: --shards needs at least two shards";
  let cfg = dude_cfg ~combine:false in
  let sh = Shard.create ~nshards cfg in
  let nvms = Array.init nshards (Shard.nvm sh) in
  let h = History.create () and next = Array.make nshards 0 in
  let tx ~thread shards body =
    let run tx =
      let ws = ref [] in
      body
        (fun s a v ->
          ws := ((s, a), v) :: !ws;
          Shard.write tx ~shard:s a v)
        (fun s a -> Shard.read tx ~shard:s a);
      History.attempt h ~worker:0 ~pos:(fun s -> next.(s) + 1) (List.rev !ws)
    in
    let ack ((), a) = shard_ack nshards a in
    if Option.is_some (outcome h ~worker:0 ~ack (Shard.atomically sh ~thread ~shards run))
    then List.iter (fun s -> next.(s) <- next.(s) + 1) shards
  in
  let setup _ =
    Shard.start sh;
    for s = 0 to nshards - 1 do
      tx ~thread:0 [ s ] (fun write _ -> write s shb_balance shb_initial)
    done
  in
  let drive _ =
    for k = 1 to txs do
      let a = k mod nshards and b = (k + 1) mod nshards in
      (* Bloat [b]'s next flush record first.  Persist drains a thread's
         whole backlog into one record and publishes its durable IDs at a
         single fence, so queue depth alone creates no skew — record size
         does: [b]'s fence lands well after [a]'s tiny fragment record is
         durable (and applicable), opening the window the replay gate must
         cover. *)
      tx ~thread:(k mod 3) [ b ] (fun write read ->
          for i = 0 to 63 do
            write b (1024 + (8 * i)) (Int64.of_int (k + i))
          done;
          write b shb_local (Int64.add (read b shb_local) 1L));
      tx ~thread:(k mod 3) [ a; b ] (fun write read ->
          let ba = read a shb_balance in
          let bb = read b shb_balance in
          write a shb_balance (Int64.sub ba 5L);
          write b shb_balance (Int64.add bb 5L);
          write a (shb_pair b) (Int64.of_int k);
          write b (shb_pair a) (Int64.of_int k))
    done
  in
  let acked = History.watermark h in
  let verdict sh = function
    | Some _ as v -> v
    | None when Shard.global_frontier sh < acked nshards ->
      Some
        (Printf.sprintf "acked cross tx lost: recovered frontier %d < acknowledged %d"
           (Shard.global_frontier sh) (acked nshards))
    | None ->
      List.init nshards Fun.id
      |> List.find_map (fun s ->
             let durable = Shard.Engine.durable_id (Shard.engine sh s) in
             if durable >= acked s then None
             else
               Some
                 (Printf.sprintf "acked tx lost on shard %d: durable %d < acknowledged %d" s durable
                    (acked s)))
  in
  lives ~vector ~setup ~stop:Shard.stop ~watermark:vector_watermark ~name:(vector_name nshards)
    ~verdict
    ~devices:(fun _ -> nvms)
    ~attach:(fun _ -> Some (fst (Shard.attach ~nshards cfg nvms)))
    ~read:(fun sh (s, a) -> Shard.Engine.heap_read_u64 (Shard.engine sh s) a)
    h sh drive

(* A clean run, then cuts at a sample of its boundaries. *)
let cut_plan ?deep budget at _ =
  let n = cut_sites budget in
  let deep = Option.map (fun d -> (max 3 (n / d), max 3 (n / d))) deep in
  Seq.return (point at ?deep ~single:(fun s -> sample_sites ~s ~n))

(* ------------------------------------------------------------------ *)
(* batch: pipelined group commit, re-crashed recovery                 *)
(* ------------------------------------------------------------------ *)

(* Groups of four transactions and a short deadline: every few
   transactions seal a batch, so deadline-, size- and drain-triggered
   batches all occur within one short run. *)
let batch_cfg =
  {
    (dude_cfg ~combine:true) with
    Config.persist = Config.Combined { group = 4; compress = true };
    batch_deadline = 512;
  }

(* The combiner seals batch k+1 while the flusher's record for batch k is
   still in flight, so the sweep lands cuts mid-pipeline: after a seal but
   before the matching NVM append.  Two deep: cut the first life, attach,
   rebase the history on the recovered cut, keep committing on the
   recovered engine and cut its second life — a recovery that mends the
   torn batch by writing state it never re-fences survives the first cut
   and loses data at the second. *)
let batch_run at vector =
  instance_lives ~vector ~monitor:false ~drives:2 ~threads:batch_cfg.Config.nthreads
    ~txs:(int_param at "txs") (stm_instance batch_cfg)

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

(* The primary runs the counter family.  No quorum-acked transaction may
   be lost, the watermark may never pass the quorum prefix, and the
   promoted image must be the replay of a cut of the history.  With K = 1
   the quorum is the primary alone, so acks promise primary-local
   durability only and failover makes no no-loss promise: only the
   prefix-consistency checks apply. *)
let replica_run at vector =
  let nreplicas = int_param at "replicas" and txs = int_param at "txs" in
  let scenario = param at "scenario" in
  let cfg = { batch_cfg with Config.plog_size = 1 lsl 14 } in
  let link =
    {
      Link.default_config with
      Link.faults = (if scenario = "faulty" then replica_faults else Link.no_faults);
      seed = cfg.Config.seed;
    }
  in
  let c = Rep.create ~rcfg:{ (Rep.default_config ~nreplicas ()) with Rep.link } cfg in
  let prim = Rep.primary c in
  let h = History.create () and drained_quorum = ref false in
  let guarded = Rep.quorum_needed ~nreplicas > 1 in
  let drive _ =
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
    workers "replica-worker" cfg.Config.nthreads ~txs (fun th i ->
        match
          outcome h ~worker:th
            (Rep.Engine.atomically prim ~thread:th (fun tx ->
                 counter_tx h ~worker:th ~stamp:stamp8 (Rep.Engine.read tx)
                   (Rep.Engine.write tx)))
        with
        (* Exercise the bounded quorum wait on a sample of commits; the
           rest stay decoupled. *)
        | Some (_, tid) when tid > 0 && i mod 4 = 0 -> ignore (Rep.wait_acked c tid)
        | _ -> ());
    drained_quorum := Rep.drain c = Rep.Quorum;
    Rep.sync_followers c;
    Rep.stop c
  in
  (* The system is the promoted engine, once the primary is killed. *)
  let verdict s v =
    let prom = snd (Option.get s) and acked = History.watermark h 0 in
    if guarded && acked > prom.Rep.quorum_prefix then
      Some
        (Printf.sprintf "acked watermark %d passed the quorum prefix %d (candidates %s)" acked
           prom.Rep.quorum_prefix
           (String.concat "," (Array.to_list (Array.map string_of_int prom.Rep.candidates))))
    else v
  in
  (* The quorum watermark is monotone: its value at a boundary is what
     was ever acknowledged as quorum-durable.  The primary's durable ID,
     a stream no commit is acknowledged on, must not go down either. *)
  lives ~vector ~verdict
    ~watermark:(fun _ see ->
      see 1 (Rep.Engine.durable_id prim);
      if guarded then see 0 (Rep.acked c))
    ~name:(function 0 -> "quorum watermark" | _ -> "primary durable id")
    ~durable:(fun s -> Some (snd (Option.get s)).Rep.report.Dudetm.durable)
    ~quiescent:(fun () -> !drained_quorum)
    ~devices:(fun _ -> [| Rep.Engine.nvm prim |])
    ~attach:(fun _ -> Some (Some (Rep.promote c)))
    ~read:(fun s (_, a) -> Rep.Engine.heap_read_u64 (fst (Option.get s)) a)
    h None drive

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

   Each key is a stream of the history: its increments are positioned by
   the value they write and acknowledged under the vector watermark
   sampled at the cut (local acks against the per-shard effective IDs,
   window double-writes against the global frontier).  After every attach
   the value at the key's descriptor-routed owner must be the replay of a
   cut keeping every acknowledged increment, and the history rebases on
   that cut; after the completed schedule every increment counts, and
   every moved range's source slots are recycled to zero.

   The [Skip_handoff_seal] mutant flips volatile routing without sealing
   the handoff record or the new descriptor; any cut after the first
   flip, or the recovery of the completed schedule, recovers the stale
   descriptor, routes the moved range back to the source, and loses the
   destination's acknowledged writes. *)

module Handoff = Dudetm_shard.Handoff
module Partition = Dudetm_workloads.Partition

let migrate_nshards = 8

let migrate_nkeys = 16

(* Bucket [b] covers keys {2b, 2b+1}. *)
let mg_initial_owners = [| 0; 0; 1; 1; 2; 2; 3; 3 |]

let mg_final_owners = [| 0; 4; 1; 5; 2; 6; 3; 7 |]

let mg_moves = List.init 4 (fun m -> (m, 4 + m, (2 * m) + 1))

let mg_slot k = 8 * k

(* One increment through the router, recorded at the value it writes. *)
let mg_bump h mig ~thread k =
  let bump v =
    let v = Int64.add v 1L in
    History.attempt h ~worker:0 ~pos:(fun _ -> Int64.to_int v) [ ((k, 0), v) ];
    v
  in
  let ack (_, a) = shard_ack migrate_nshards a in
  ignore (outcome h ~worker:0 ~ack (Mig.apply mig ~thread ~key:k bump))

let mg_peek sh s k = Shard.Engine.heap_read_u64 (Shard.engine sh s) (mg_slot k)

(* Every key read at its descriptor-routed owner. *)
let mg_read sh mig (k, _) = mg_peek sh (Mig.owner mig k) k

(* The completed-resharding fixpoint: final owners, and every non-owner
   slot recycled to zero. *)
let mg_converged sh mig =
  let owners = Partition.owners (Mig.partition mig) in
  let stray k s =
    let o = Mig.owner mig k and v = mg_peek sh s k in
    if s = o || v = 0L then None
    else
      Some
        (Printf.sprintf "unreachable extent: shard %d still holds %Ld for key %d (owner %d)" s v
           k o)
  in
  if owners <> mg_final_owners then
    Some
      (Printf.sprintf "resharding did not converge: owners %s"
         (String.concat ";" (Array.to_list (Array.map string_of_int owners))))
  else
    List.find_map
      (fun k -> List.find_map (stray k) (List.init migrate_nshards Fun.id))
      (List.init migrate_nkeys Fun.id)

(* One increment of every key. *)
let mg_round h mig =
  for k = 0 to migrate_nkeys - 1 do
    mg_bump h mig ~thread:(k mod 3) k
  done

(* The deterministic resharding schedule under traffic: per move, a full
   round of increments, then chunked copy interleaved with double-writes
   in the moving range and traffic outside it, the flip, a post-flip
   commit routed to the new owner, and chunked cleanup under traffic. *)
let mg_schedule h mig =
  List.iter
    (fun (src, dst, b) ->
      mg_round h mig;
      Mig.begin_migration mig ~src ~dst ~blo:b ~bhi:(b + 1);
      let kin = 2 * b and kout = ((2 * b) + 5) mod migrate_nkeys in
      let fin = ref false in
      while not !fin do
        fin := Mig.copy_step ~chunk:1 mig ~thread:0;
        mg_bump h mig ~thread:1 kin;
        mg_bump h mig ~thread:2 kout
      done;
      Mig.flip mig;
      mg_bump h mig ~thread:0 ((2 * b) + 1);
      let fin = ref false in
      while not !fin do
        fin := Mig.cleanup_step ~chunk:2 mig ~thread:0;
        mg_bump h mig ~thread:1 kout
      done)
    mg_moves;
  mg_round h mig

(* After a re-attach: finish any pending cleanup, re-run every move the
   descriptor still shows unfinished, then one more round to prove the
   recovered instance routes and commits. *)
let mg_complete h mig =
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
  mg_round h mig

(* First life: the schedule, cut at crash-at.  The attach after that cut
   opens the second life, so a cut can land inside recovery itself —
   between the roll-forward seals of a half-flipped handoff — and the
   recovered instance completes the schedule in it (cut at crash2).
   After a second cut, or after the uncut schedule, the attach and any
   completion run unarmed.  Every attach is judged by the history, the
   last also by the fixpoint. *)
let migrate_run _ vector =
  let cfg = dude_cfg ~combine:false in
  let part =
    Partition.buckets ~nshards:migrate_nshards ~lo:0L ~hi:(Int64.of_int migrate_nkeys)
      ~owners:mg_initial_owners
  in
  let sh = Shard.create ~nshards:migrate_nshards cfg in
  let mig = Mig.create sh ~part ~nkeys:migrate_nkeys ~slot_of:mg_slot in
  let nvms = Array.init migrate_nshards (Shard.nvm sh) in
  let h = History.create () in
  let attach _ =
    let sh2, _ = Shard.attach ~nshards:migrate_nshards cfg nvms in
    let mig2, _ = Mig.attach sh2 ~nkeys:migrate_nkeys ~slot_of:mg_slot in
    Some (sh2, mig2)
  in
  (* The first life runs the schedule; a recovered instance completes it. *)
  let drive (_, m) = if m == mig then mg_schedule h mig else mg_complete h m in
  lives ~vector ~arm_attach:`After_first_cut ~drives:3
    ~setup:(fun (sh, _) -> Shard.start sh)
    ~stop:(fun (sh, _) -> Shard.stop sh)
    ~watermark:(fun (sh, _) -> vector_watermark sh)
    ~name:(vector_name migrate_nshards)
    ~verdict:(fun (sh, mig) v -> if v = None then mg_converged sh mig else v)
    ~devices:(fun _ -> nvms) ~attach
    ~read:(fun (sh, mig) -> mg_read sh mig)
    h (sh, mig) drive

(* ------------------------------------------------------------------ *)
(* snapshot: read-only snapshots across power cuts                    *)
(* ------------------------------------------------------------------ *)

(* Pair-writer transactions — every commit writes the same value to both
   slots of one pair — against a concurrent read-only snapshot reader
   alternating volatile and durable-only mode.  Each pair is a stream of
   the history, positioned by the values its writes count.  Every
   completed read-set must be the replay of a cut, so va = vb: a reader
   whose epoch extension spans a writer's commit must retry or see none of
   its writes (the [Skip_snapshot_validate] mutant slides the epoch
   forward without revalidating and tears).  A durable-mode read proves
   its cut durable, so recovery must keep it. *)

let snapshot_npairs = 4

let sn_slot_a p = 8 + (16 * p)

let sn_slot_b p = sn_slot_a p + 8

let snapshot_run at vector =
  let txs = int_param at "txs" in
  let nthreads = batch_cfg.Config.nthreads in
  let nwriters = nthreads - 1 in
  let inst = stm_instance batch_cfg in
  let p = inst.ptm in
  let h = History.create () and reads = ref 0 in
  let pair_writes q va vb = [ ((q, sn_slot_a q), va); ((q, sn_slot_b q), vb) ] in
  (* The reader stops once the last write has returned: the moment its
     writer fiber ends. *)
  let writes_left = ref (nwriters * txs) in
  let write th i =
    let pair = (th + (nwriters * i)) mod snapshot_npairs in
    ignore
      (outcome h ~worker:th
         (p.Ptm.atomically ~thread:th (fun tx ->
              let v = Int64.add (tx.Ptm.read (sn_slot_a pair)) 1L in
              tx.Ptm.write (sn_slot_a pair) v;
              tx.Ptm.write (sn_slot_b pair) v;
              History.attempt h ~worker:th ~pos:(fun _ -> Int64.to_int v) (pair_writes pair v v))));
    decr writes_left
  in
  let reader () =
    [
      Sched.spawn "snapshot-reader" (fun () ->
          let durable = ref false in
          while !writes_left > 0 do
            durable := not !durable;
            (* All [a] halves first, then all [b] halves: a writer
               committing pair [q] anywhere in between bumps both stripes
               past the epoch, so the [b] read triggers an extension —
               which must revalidate the recorded [a] (and restart), or
               tear. *)
            match
              p.Ptm.atomically_ro ~durable:!durable ~thread:(nthreads - 1) (fun tx ->
                  let read slot = Array.init snapshot_npairs (fun q -> tx.Ptm.read (slot q)) in
                  let va = read sn_slot_a in
                  let vb = read sn_slot_b in
                  (va, vb))
            with
            | Some ((va, vb), epoch) ->
              incr reads;
              History.read h ~epoch ~durable:!durable
                (List.concat (List.init snapshot_npairs (fun q -> pair_writes q va.(q) vb.(q))))
            | None -> ()
          done);
    ]
  in
  (* The streams are pairs, so the engine's durable report is not
     compared. *)
  instance_lives ~vector ~h ~monitor:false ~work:write ~also:reader
    ~durable:(fun _ -> None)
    ~tallies:(fun () -> [ ("snapshot reads", !reads) ])
    ~threads:nwriters ~txs inst

(* ------------------------------------------------------------------ *)
(* serve: the serving front end, acked-prefix oracle                  *)
(* ------------------------------------------------------------------ *)

(* One closed-loop client session per pair drives dense increments
   through the bounded queue, admission gate, DRR dispatch and
   durable-watermark acker; each write of value v stamps both slots of its
   pair, and its reply is its acknowledgement.  Each pair is a stream of
   the history: a request in flight is its client's unreturned attempt.
   After re-attach the image must be the replay of a cut keeping every
   replied request (a reply is a durability promise — the
   [Skip_admission_gate] mutant releases replies at commit instead of the
   durable watermark), and with no cut every request counts. *)

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

let serve_run at vector =
  let txs = int_param at "txs" in
  let cfg = Dudetm_serve.Serve_load.engine_cfg ~workers:serve_scfg.Serve.workers_per_shard () in
  let sh = Srv.Sh.create ~nshards:serve_nshards cfg in
  let srv = Srv.create ~scfg:serve_scfg ~app:serve_app ~ntenants:serve_ntenants sh in
  let h = History.create () and acked = ref 0 and shed = ref 0 in
  let desc p op = Srv.make_desc ~tenant:(p mod serve_ntenants) ~session:p op in
  let descs op = Array.init serve_npairs (fun p -> desc p (op (Int64.of_int p))) in
  let wds = descs (fun key -> Serve.Write { key; payload = 0L }) in
  let rds = descs (fun key -> Serve.Read { key }) in
  let client p v =
    let key = Int64.of_int p and payload = Int64.of_int v in
    History.attempt h ~worker:p ~pos:(fun _ -> v)
      [ ((p, sv_slot_a p), payload); ((p, sv_slot_b p), payload) ];
    let rec attempt () =
      Srv.set_op wds.(p) (Serve.Write { key; payload });
      if not (Srv.submit srv wds.(p)) then begin
        incr shed;
        Sched.advance 2_000;
        attempt ()
      end
      else
        match Srv.await wds.(p) with
        | Serve.R_executed _ ->
          incr acked;
          History.commit h ~worker:p ~ack:History.Acked ()
        | Serve.R_aborted -> attempt ()
        | _ -> fail "write reply of unexpected shape"
    in
    attempt ();
    (* Opportunistic snapshot read: the pair must never be torn in flight
       either. *)
    if v land 3 = 0 then begin
      Srv.set_op rds.(p) (Serve.Read { key });
      if Srv.submit srv rds.(p) then
        match Srv.await rds.(p) with
        | Serve.R_value r when Int64.equal r (-1L) ->
          fail (Printf.sprintf "torn in-flight read of pair %d" p)
        | _ -> ()
    end
  in
  let nvms = Array.init serve_nshards (Srv.Sh.nvm sh) in
  let drive _ =
    Srv.start srv;
    workers "serve-client" serve_npairs ~txs client;
    Srv.stop srv
  in
  lives ~vector
    ~tallies:(fun () -> [ ("acked requests", !acked); ("shed", !shed) ])
    ~devices:(fun _ -> nvms)
    ~attach:(fun _ -> Some (fst (Srv.Sh.attach ~nshards:serve_nshards cfg nvms)))
    ~read:(fun sh (p, a) -> Srv.Engine.heap_read_u64 (Srv.Sh.engine sh (sv_shard_of p)) a)
    h sh drive

(* ------------------------------------------------------------------ *)
(* The campaign table and the replay grammar                          *)
(* ------------------------------------------------------------------ *)

let int_ok v = match int_of_string_opt v with Some n -> n >= 0 | None -> false

let float_ok v = Option.is_some (float_of_string_opt v)

let one_of l v = List.mem v l

let coord ?(valid = int_ok) flag kind = { flag; kind; valid }

(* One life deep, no post-check and no shrinking unless given. *)
let campaign ?(doc = "") ?(coords = []) ?(depth = 1) ?(post = fun _ -> None)
    ?(shrink = fun _ f -> f) name run plan =
  { name; doc; coords; depth; run; plan; post; shrink }

let campaigns =
  [
    campaign "explore" explore_run explore_plan ~shrink:explore_shrink
      ~coords:
        [
          coord "system" (Each (List.map fst systems)) ~valid:(fun s -> List.mem_assoc s systems);
          coord "workload" Sweep ~valid:(one_of [ "counter"; "overlap"; "counter1" ]);
          coord "threads" (Fixed "3");
          coord "txs" (Fixed "2");
          coord "sched" Case ~valid:valid_sched;
          coord "evict" (Fixed "0") ~valid:float_ok;
          coord "evict-seed" (Fixed "1");
        ];
    campaign "media" media_run media_plan
      ~doc:
        "Inject seeded bit rot, poison and stuck lines into the persisted image after crashes, \
         scrub, recover: every corruption must be repaired or reported."
      ~coords:
        [
          coord "system" (Fixed "dude") ~valid:(( = ) "dude");
          coord "media-seed" Case;
          coord "faults" Case ~valid:(one_of [ "heap"; "mixed" ]);
        ];
    campaign "recovery" recovery_run recovery_plan ~depth:3
      ~doc:
        "Cut power inside attach and scrub, and inside the recovery of a crashed recovery: \
         every leg must converge to the uninterrupted recovery."
      ~coords:[ coord "leg" Case ~valid:(one_of [ "attach"; "scrub" ]) ];
    campaign "daemons" daemons_run daemons_plan ~post:daemons_post
      ~doc:
        "Inject seeded transient Persist/Reproduce faults: supervised restarts may move only \
         the restart counters, never the recovered state."
      ~coords:[ coord "daemon-seed" Case; coord "fault-rate" (Fixed "0.25") ~valid:float_ok ];
    campaign "shards" shards_run (cut_plan ?deep:None)
      ~doc:
        "Cut power during cross-shard transfers on every shard's device: every transfer must \
         be all-or-nothing and every vector-watermark acknowledgement must survive."
      ~coords:[ coord "shard-count" (Fixed "3"); coord "txs" (Fixed "10") ];
    campaign "batch" batch_run (cut_plan ~deep:15) ~depth:2
      ~doc:
        "Cut power at the boundaries of the pipelined group commit, then re-crash the \
         recovered engine: recovery must be exactly the acknowledged durable prefix."
      ~coords:[ coord "txs" (Fixed "12") ];
    campaign "replica" replica_run replica_plan
      ~doc:
        "Kill the primary while the redo log ships to K replicas over clean, faulty and \
         partitioned links, promote: no quorum-acked transaction may be lost."
      ~coords:
        [
          coord "replicas" (Fixed "3");
          coord "txs" (Fixed "10");
          coord "scenario" Sweep ~valid:(one_of replica_scenarios);
        ];
    campaign "migrate" migrate_run (cut_plan ~deep:20) ~depth:2
      ~doc:
        "Cut power during a live 4->8 resharding, and inside recovery's own handoff seals: \
         every key on exactly one shard, no acknowledged write lost.";
    campaign "snapshot" snapshot_run (cut_plan ?deep:None)
      ~doc:
        "Run volatile and durable snapshot readers against pair writers through power cuts: \
         read-sets never tear, durable-mode values survive recovery."
      ~coords:[ coord "txs" (Fixed "12") ];
    campaign "serve" serve_run (cut_plan ?deep:None)
      ~doc:
        "Drive requests through the serving front end's queue, admission gate and \
         durable-watermark acker through power cuts: no acknowledged request lost."
      ~coords:[ coord "txs" (Fixed "10") ];
  ]

let campaign_docs = List.map (fun c -> (c.name, c.doc)) campaigns

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
  match List.find_opt (fun c -> c.name = name) campaigns with
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
  let c = find name in
  match coordinate c args with
  | _, Some _ -> [ args ]
  | _, None -> (
    let each co = match co.kind with Each vs -> Some (co.flag, vs) | _ -> None in
    match List.find_map each (List.filter (fun co -> not (List.mem_assoc co.flag args)) c.coords) with
    | Some (flag, choices) -> List.map (fun v -> args @ [ (flag, v) ]) choices
    | None -> [ args ])

let run ?(log = ignore) ?(budget = budget_of_env ()) ?(mutant = Inject.No_fault) name args =
  let c = find name in
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
  let c = find f.campaign in
  let flag k v = Printf.sprintf " --%s %s" k v in
  String.concat ""
    ((if c.name = "explore" then "dudetm check" else "dudetm check --" ^ c.name)
     :: (if f.mutant = No_fault then "" else flag "mutate" (Inject.name f.mutant))
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
    | "--mutate" :: m :: rest -> go name (Inject.of_name m) args rest
    | f :: rest when List.exists (fun (n, _) -> f = "--" ^ n) campaign_docs ->
      go (String.sub f 2 (String.length f - 2)) mutant args rest
    | f :: v :: rest when String.starts_with ~prefix:"--" f ->
      go name mutant ((String.sub f 2 (String.length f - 2), v) :: args) rest
    | w :: _ -> invalid_arg ("Check: cannot parse replay word " ^ w)
  in
  go "explore" Inject.No_fault [] (List.filter (( <> ) "") (String.split_on_char ' ' line))

let summary = function
  | Fail f ->
    Printf.sprintf "%s campaign: FAIL: %s\n  replay: %s" f.campaign f.reason (replay_line f)
  | Pass r ->
    let c = find r.campaign in
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
