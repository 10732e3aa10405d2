(* Scheduler, RNG, resource and stats tests. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Resource = Dudetm_sim.Resource
module Stats = Dudetm_sim.Stats
module Cycles = Dudetm_sim.Cycles

let check = Alcotest.check

let test_single_thread_time () =
  let total = Sched.run (fun () -> Sched.advance 1000) in
  check Alcotest.int "advance accumulates" 1000 total

let test_min_clock_order () =
  (* Two threads with different step sizes must interleave in clock order. *)
  let log = ref [] in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "a" (fun () ->
                for i = 1 to 3 do
                  Sched.advance 10;
                  log := ("a", i, Sched.now ()) :: !log
                done));
         ignore
           (Sched.spawn "b" (fun () ->
                for i = 1 to 2 do
                  Sched.advance 25;
                  log := ("b", i, Sched.now ()) :: !log
                done))));
  let times = List.rev_map (fun (_, _, t) -> t) !log in
  check Alcotest.(list int) "events fire in time order" (List.sort compare times) times

let test_wait_until_wakes () =
  let flag = ref false in
  let woke_at = ref 0 in
  let total =
    Sched.run (fun () ->
        ignore
          (Sched.spawn "waiter" (fun () ->
               Sched.wait_until ~label:"flag" (fun () -> !flag);
               woke_at := Sched.now ()));
        ignore
          (Sched.spawn "setter" (fun () ->
               Sched.advance 500;
               flag := true)))
  in
  check Alcotest.bool "waiter resumed after the setter" true (!woke_at >= 500);
  check Alcotest.bool "simulation ended at waiter's clock" true (total >= 500)

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock raises"
    (Sched.Deadlock "1:stuck waiting on never")
    (fun () ->
      ignore
        (Sched.run (fun () ->
             ignore
               (Sched.spawn "stuck" (fun () ->
                    Sched.wait_until ~label:"never" (fun () -> false))))))

let test_daemons_do_not_block_exit () =
  let cleaned = ref false in
  let total =
    Sched.run (fun () ->
        ignore
          (Sched.spawn ~daemon:true "d" (fun () ->
               try Sched.wait_until ~label:"forever" (fun () -> false)
               with Sched.Killed -> cleaned := true));
        Sched.advance 100)
  in
  check Alcotest.int "exit at main's clock" 100 total;
  check Alcotest.bool "daemon saw Killed" true !cleaned

let test_spawn_inherits_clock () =
  let child_start = ref (-1) in
  ignore
    (Sched.run (fun () ->
         Sched.advance 300;
         ignore (Sched.spawn "child" (fun () -> child_start := Sched.now ()))));
  check Alcotest.int "child starts at parent's clock" 300 !child_start

let test_exception_propagates () =
  Alcotest.check_raises "thread exception escapes run" Exit (fun () ->
      ignore
        (Sched.run (fun () ->
             ignore (Sched.spawn "boom" (fun () -> raise Exit));
             Sched.advance 10_000)))

let test_determinism () =
  let trace () =
    let log = ref [] in
    ignore
      (Sched.run (fun () ->
           for t = 0 to 2 do
             ignore
               (Sched.spawn (string_of_int t) (fun () ->
                    let rng = Rng.create (t + 1) in
                    for _ = 1 to 20 do
                      Sched.advance (1 + Rng.int rng 50);
                      log := (t, Sched.now ()) :: !log
                    done))
           done));
    !log
  in
  check Alcotest.bool "two identical runs produce identical traces" true (trace () = trace ())

let test_outside_run_fallbacks () =
  Sched.advance 50 (* no-op *);
  check Alcotest.int "now is 0 outside a run" 0 (Sched.now ());
  check Alcotest.int "self is 0 outside a run" 0 (Sched.self ());
  Sched.wait_until ~label:"true" (fun () -> true);
  check Alcotest.bool "running is false" false (Sched.running ())

let test_predicates_read_zero () =
  (* Predicates run with no thread current: both the first evaluation inside
     [wait_until] and every later poll by the scheduler read 0. *)
  let flag = ref false and seen = ref [] in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "waiter" (fun () ->
                Sched.advance 50;
                Sched.wait_until ~label:"flag" (fun () ->
                    seen := (Sched.now (), Sched.self ()) :: !seen;
                    !flag)));
         Sched.advance 100;
         flag := true));
  check Alcotest.bool "polled more than once" true (List.length !seen >= 2);
  List.iter (check Alcotest.(pair int int) "now/self in a predicate" (0, 0)) !seen;
  (* The same from picks decided inside [advance]: thread 2 advances alone
     while the waiter is polled, and reads its own clock and id after. *)
  let flag = ref false and seen = ref [] and ticks = ref [] in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "waiter" (fun () ->
                Sched.wait_until ~label:"flag" (fun () ->
                    seen := (Sched.now (), Sched.self ()) :: !seen;
                    !flag)));
         ignore
           (Sched.spawn "ticker" (fun () ->
                for _ = 1 to 3 do
                  Sched.advance 10;
                  ticks := (Sched.now (), Sched.self ()) :: !ticks
                done;
                flag := true))));
  (* At the wait, the pick after it blocks, the ticker's three advances and
     the pick after the ticker returns. *)
  check Alcotest.int "polled at every pick" 6 (List.length !seen);
  List.iter (check Alcotest.(pair int int) "now/self in a predicate" (0, 0)) !seen;
  check
    Alcotest.(list (pair int int))
    "the ticker reads its own clock and id" [ (10, 2); (20, 2); (30, 2) ] (List.rev !ticks)

(* A polled waiter's predicate runs once when the wait starts and then
   exactly once per pick, whether the pick is decided inside [advance] and
   the advancing thread keeps running, or another thread wins and the run
   loop acts on the decision already made. *)
let test_poll_once_per_pick () =
  let calls = ref 0 and flag = ref false in
  let waiter () =
    Sched.wait_until ~label:"flag" (fun () ->
        incr calls;
        !flag)
  in
  let advances k = for _ = 1 to k do Sched.advance 10 done in
  (* main wins every pick from its 2nd to its 10th advance; at its 11th
     the waiter, ready, wins.  Picks while waiting: the one after the wait
     blocks, and main's advances 2 to 11. *)
  ignore
    (Sched.run (fun () ->
         ignore (Sched.spawn "waiter" waiter);
         advances 10;
         flag := true;
         advances 1));
  check Alcotest.int "advancing thread keeps winning" (1 + 1 + 10) !calls;
  (* main and "other" alternate, each losing every advance to the other
     (a heap thread wins), until main's 4th advance loses to the ready
     waiter.  Picks while waiting: the one after the wait blocks (other
     wins), then main's advances 2 to 4 and other's 1 to 3. *)
  calls := 0;
  flag := false;
  ignore
    (Sched.run (fun () ->
         ignore (Sched.spawn "waiter" waiter);
         ignore (Sched.spawn "other" (fun () -> advances 3));
         advances 3;
         flag := true;
         advances 1));
  check Alcotest.int "a heap thread or the ready waiter wins" (1 + 1 + 3 + 3) !calls

let test_killed_daemon_reads_own_clock () =
  let cleanup = ref (-1, -1) in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn ~daemon:true "d" (fun () ->
                try
                  Sched.advance 500;
                  Sched.wait_until ~label:"forever" (fun () -> false)
                with Sched.Killed -> cleanup := (Sched.now (), Sched.self ())));
         Sched.advance 100));
  check Alcotest.(pair int int) "cleanup sees the daemon's clock and id" (500, 1) !cleanup

let test_deadlock_report_spawn_order () =
  (* The waiters block in the order main, b, c, a; the report is by id. *)
  let never = fun () -> false in
  Alcotest.check_raises "report in spawn order"
    (Sched.Deadlock
       "0:main waiting on end; 1:a waiting on x; 2:b waiting on y; 3:c waiting on z")
    (fun () ->
      ignore
        (Sched.run (fun () ->
             List.iter
               (fun (name, k, label) ->
                 ignore
                   (Sched.spawn name (fun () ->
                        Sched.advance k;
                        Sched.wait_until ~label never)))
               [ ("a", 30, "x"); ("b", 10, "y"); ("c", 20, "z") ];
             Sched.wait_until ~label:"end" never)))

(* A switch allocates only the continuation [perform] captures: a wait
   that blocks keeps its predicate, label and conds in the thread, and a
   losing [advance] its continuation.  Each figure is the difference of
   two runs, so the run's own setup cancels out. *)
let per_round run =
  let words n = Test_plog.allocated (fun () -> ignore (Sched.run (fun () -> run n))) in
  (words 1100 -. words 100) /. 1000.

(* One round: the waiter parks on [c], main sets the flag, signals and
   loses its next advance to the woken waiter, which clears the flag and
   parks again. *)
let park_signal_rounds n =
  let c = Sched.cond () and flag = ref false in
  let on = [ c ] and ready () = !flag in
  ignore
    (Sched.spawn "waiter" (fun () ->
         for _ = 1 to n do
           Sched.wait_on on ~label:"flag" ready;
           flag := false
         done));
  for _ = 1 to n do
    Sched.advance 10;
    flag := true;
    Sched.signal c;
    Sched.advance 10
  done

(* Two threads at the same pace: every advance loses to the other. *)
let losing_advances n =
  let steps () = for _ = 1 to n do Sched.advance 10 done in
  ignore (Sched.spawn "other" steps);
  steps ()

let ready_waits n =
  let always () = true in
  for _ = 1 to n do
    Sched.wait_until ~label:"ready" always
  done

(* A continuation is one block: 2 words on OCaml 5.1, 3 on 5.2.  A round
   holds two (the wait's and the losing advance's), a pair of losing
   advances two, and a ready wait nothing.  The limits leave no room for
   an effect, closure, cond list or state boxed per switch. *)
let cont_words =
  Scanf.sscanf Sys.ocaml_version "%d.%d" (fun major minor ->
      if (major, minor) < (5, 2) then 2. else 3.)

let test_switch_allocation_guard () =
  let limit = 2. *. cont_words in
  let round = per_round park_signal_rounds in
  if round > limit then
    Alcotest.failf "%.1f words per park/signal round (limit %.0f)" round limit;
  let pair = per_round losing_advances in
  if pair > limit then
    Alcotest.failf "%.1f words per pair of losing advances (limit %.0f)" pair limit;
  let ready = per_round ready_waits in
  if ready > 0.5 then Alcotest.failf "%.1f words per ready wait (limit 0.5)" ready

(* A predicate that already holds causes no switch: inserting ready waits
   changes no pick, no decision point and no clock, under either
   strategy, and the predicate still reads [now]/[self] as 0.  A
   predicate that raises leaves its caller current. *)
let test_ready_wait_no_switch () =
  let trace strategy ~waits =
    let log = ref [] and seen = ref [] in
    let ready () =
      seen := (Sched.now (), Sched.self ()) :: !seen;
      true
    in
    let body pace () =
      for _ = 1 to 5 do
        Sched.advance pace;
        if waits then Sched.wait_until ~label:"ready" ready;
        log := (Sched.self (), Sched.now ()) :: !log
      done
    in
    let total =
      Sched.run ~strategy (fun () ->
          List.iter (fun pace -> ignore (Sched.spawn "t" (body pace))) [ 7; 11; 13 ];
          body 5 ())
    in
    (total, List.rev !log, !seen)
  in
  List.iter
    (fun strategy ->
      let total, log, _ = trace strategy ~waits:false in
      let total', log', seen = trace strategy ~waits:true in
      check Alcotest.int "same end time" total total';
      check Alcotest.(list (pair int int)) "same picks and clocks" log log';
      check Alcotest.int "each ready wait evaluated once" 20 (List.length seen);
      List.iter (check Alcotest.(pair int int) "now/self in a ready predicate" (0, 0)) seen)
    [ Sched.min_clock; Sched.random_priority ~seed:3 ];
  let after = ref (-1, -1) in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "raiser" (fun () ->
                Sched.advance 30;
                (match Sched.wait_until ~label:"raises" (fun () -> failwith "pred") with
                | () -> Alcotest.fail "a raising predicate returned"
                | exception Failure _ -> ());
                Sched.advance 10;
                after := (Sched.now (), Sched.self ())))));
  check Alcotest.(pair int int) "caller current after a raising predicate" (40, 1) !after

(* ---- differential test: Sched against a linear-scan reference ---- *)

type op = Adv of int | Incr of int | Wait_ge of int * int | Join | Halt | Spawn of bool * op list

let rec show_ops ops =
  String.concat "; "
    (List.map
       (function
         | Adv k -> Printf.sprintf "adv %d" k
         | Incr c -> Printf.sprintf "incr c%d" c
         | Wait_ge (c, v) -> Printf.sprintf "wait c%d>=%d" c v
         | Join -> "join"
         | Halt -> "halt"
         | Spawn (d, body) ->
           Printf.sprintf "%s [%s]" (if d then "daemon" else "spawn") (show_ops body))
       ops)

let gen_prog =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [
        (3, map (fun k -> Adv k) (int_range (-1) 12));
        (3, map (fun c -> Incr c) (int_bound 2));
        (3, map2 (fun c v -> Wait_ge (c, v)) (int_bound 2) (int_bound 2));
        (2, pure Join);
        (1, pure Halt);
      ]
  in
  fix
    (fun self depth ->
      let op =
        if depth = 0 then leaf
        else
          frequency [ (4, leaf); (1, map2 (fun d b -> Spawn (d, b)) bool (self (depth - 1))) ]
      in
      list_size (int_range 0 8) op)
    3

let label c v = Printf.sprintf "c%d>=%d" c v

(* The program on the real scheduler; every resume logs (self, now).  With
   [parked], every wait parks on its counter's cond and every increment
   signals it.  A [Join] joins the threads its own thread spawned so far;
   a [Halt] ends the run. *)
let run_sched ?(parked = false) strategy prog =
  let counters = Array.make 3 0 and log = ref [] in
  let conds = Array.init 3 (fun _ -> Sched.cond ()) in
  let on = Array.map (fun c -> [ c ]) conds in
  let note () = log := (Sched.self (), Sched.now ()) :: !log in
  let rec exec ops =
    let kids = ref [] in
    List.iter
      (function
        | Adv k ->
          Sched.advance k;
          note ()
        | Incr c ->
          counters.(c) <- counters.(c) + 1;
          Sched.signal conds.(c)
        | Wait_ge (c, v) ->
          let label = label c v and ready () = counters.(c) >= v in
          if parked then Sched.wait_on on.(c) ~label ready else Sched.wait_until ~label ready;
          note ()
        | Join ->
          Sched.join !kids;
          note ()
        | Halt -> Sched.halt ()
        | Spawn (daemon, body) ->
          kids :=
            Sched.spawn ~daemon "f" (fun () ->
                note ();
                exec body)
            :: !kids)
      ops
  in
  let outcome =
    try Ok (Sched.run ~strategy (fun () -> note (); exec prog))
    with Sched.Deadlock r -> Error r
  in
  (List.rev !log, outcome)

(* The reference: scan every thread for the least (clock, id), evaluate
   each predicate twice (to pick, then to drag), sort the candidates for a
   Choice strategy. *)
type rstate = Fresh | Paused | Blocked of int * int | Joining | Done

type rthread = {
  rid : int;
  daemon : bool;
  mutable clock : int;
  mutable code : op list;
  mutable st : rstate;
  mutable kids : rthread list;
}

let run_reference strategy prog =
  let counters = Array.make 3 0 and log = ref [] in
  let threads = ref [] and live = ref 0 and watermark = ref 0 and steps = ref 0 in
  let halted = ref false in
  let add daemon clock code =
    let t = { rid = List.length !threads; daemon; clock; code; st = Fresh; kids = [] } in
    threads := !threads @ [ t ];
    if not daemon then incr live;
    t
  in
  let ready t =
    match t.st with
    | Fresh | Paused -> true
    | Blocked (c, v) -> counters.(c) >= v
    | Joining -> List.for_all (fun k -> k.st = Done) t.kids
    | Done -> false
  in
  let rec exec t =
    match t.code with
    | [] ->
      t.st <- Done;
      if not t.daemon then decr live
    | op :: rest -> (
      t.code <- rest;
      match op with
      | Adv k ->
        t.clock <- t.clock + max 0 k;
        t.st <- Paused
      | Incr c ->
        counters.(c) <- counters.(c) + 1;
        exec t
      | Wait_ge (c, v) ->
        if counters.(c) >= v then begin
          log := (t.rid, t.clock) :: !log;
          exec t
        end
        else t.st <- Blocked (c, v)
      | Join ->
        t.st <- Joining;
        if ready t then begin
          log := (t.rid, t.clock) :: !log;
          exec t
        end
      | Halt -> halted := true
      | Spawn (daemon, body) ->
        t.kids <- add daemon t.clock body :: t.kids;
        exec t)
  in
  let less a b = (a.clock, a.rid) < (b.clock, b.rid) in
  let report () =
    List.filter_map
      (fun t ->
        let waiting l =
          Some (Printf.sprintf "%d:%s waiting on %s" t.rid (if t.rid = 0 then "main" else "f") l)
        in
        match t.st with
        | Blocked (c, v) -> waiting (label c v)
        | Joining -> waiting "join"
        | _ -> None)
      !threads
    |> String.concat "; "
  in
  let rec loop () =
    if !live = 0 || !halted then Ok !watermark
    else
      let cands = List.filter ready !threads in
      let pick =
        match (strategy, cands) with
        | _, [] -> None
        | Sched.Min_clock, c :: cs ->
          Some (List.fold_left (fun b t -> if less t b then t else b) c cs)
        | Sched.Choice _, [ c ] -> Some c
        | Sched.Choice choose, _ ->
          let sorted = List.sort (fun a b -> compare (a.clock, a.rid) (b.clock, b.rid)) cands in
          let n = List.length sorted in
          let i = choose ~step:!steps ~candidates:n in
          incr steps;
          Some (List.nth sorted (if i < 0 || i >= n then 0 else i))
      in
      match pick with
      | None -> Error (report ())
      | Some w ->
        List.iter
          (fun t ->
            match t.st with
            | (Blocked _ | Joining) when (not (ready t)) && t.clock < w.clock -> t.clock <- w.clock
            | _ -> ())
          !threads;
        watermark := max !watermark w.clock;
        log := (w.rid, w.clock) :: !log;
        exec w;
        loop ()
  in
  ignore (add false 0 prog);
  let outcome = loop () in
  (List.rev !log, outcome)

let prop_sched_matches_reference =
  QCheck2.Test.make ~name:"sched: resume log and final time match a linear-scan reference"
    ~count:300
    ~print:(fun (prog, seed) -> Printf.sprintf "seed %d: [%s]" seed (show_ops prog))
    QCheck2.Gen.(pair gen_prog (int_bound 1000))
    (fun (prog, seed) ->
      List.for_all
        (fun strategy ->
          let reference = run_reference strategy prog in
          run_sched strategy prog = reference && run_sched ~parked:true strategy prog = reference)
        [ Sched.min_clock; Sched.random_priority ~seed ])

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 97 in
    if v < 0 || v >= 97 then Alcotest.fail "Rng.int out of bounds"
  done

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same seed, same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check Alcotest.bool "split streams differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Rng.float out of range"
  done

let test_resource_serializes () =
  let r = Resource.create ~cycles_per_byte:2.0 in
  let c1 = Resource.transfer r ~now:0 ~bytes:100 ~latency:0 in
  check Alcotest.int "first transfer takes bytes*cpb" 200 c1;
  let c2 = Resource.transfer r ~now:0 ~bytes:100 ~latency:0 in
  check Alcotest.int "second transfer queues behind the first" 400 c2;
  check Alcotest.int "total bytes" 200 (Resource.total_bytes r)

let test_resource_latency_overlaps () =
  let r = Resource.create ~cycles_per_byte:1.0 in
  let c1 = Resource.transfer r ~now:0 ~bytes:10 ~latency:1000 in
  check Alcotest.int "latency dominates a small transfer" 1000 c1;
  (* The channel is busy only 10 cycles, so a second transfer queues 10
     cycles of bandwidth but its latency overlaps the first's. *)
  let c2 = Resource.transfer r ~now:0 ~bytes:10 ~latency:1000 in
  check Alcotest.int "latency overlaps across callers" 1010 c2

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.add s "a" 4;
  check Alcotest.int "accumulates" 5 (Stats.get s "a");
  check Alcotest.int "missing counter is 0" 0 (Stats.get s "zz");
  Stats.reset s;
  check Alcotest.int "reset clears" 0 (Stats.get s "a")

let test_latency_percentiles () =
  let r = Stats.Latency.create () in
  for i = 1 to 100 do
    Stats.Latency.record r i
  done;
  check Alcotest.int "p50" 50 (Stats.Latency.percentile r 50.0);
  check Alcotest.int "p99" 99 (Stats.Latency.percentile r 99.0);
  check Alcotest.int "p100" 100 (Stats.Latency.percentile r 100.0);
  check (Alcotest.float 0.01) "mean" 50.5 (Stats.Latency.mean r)

let test_cycles_conversions () =
  check Alcotest.int "1 us at 3.4 GHz" 3400 (Cycles.of_ns 1000.0);
  check (Alcotest.float 0.001) "3400 cycles is 1 us" 1.0 (Cycles.to_us 3400);
  check Alcotest.bool "1 GB/s is ~3.4 cycles per byte" true
    (abs_float (Cycles.per_byte_of_gbps 1.0 -. 3.4) < 0.01)

(* [poll] steps by [step], clips the last step to the budget, asks the
   predicate before every step and once after the last, and stops at the
   first yes. *)
let test_poll_bounded () =
  let run ~budget ~step ~ready_at =
    let asked = ref [] and spent = ref 0 in
    ignore
      (Sched.run (fun () ->
           spent :=
             Sched.poll ~budget ~step (fun e ->
                 asked := (e, Sched.now ()) :: !asked;
                 e >= ready_at)));
    (!spent, List.rev !asked)
  in
  let asked = Alcotest.(pair int (list (pair int int))) in
  Alcotest.check asked "budget spent, last step clipped"
    (25, [ (0, 0); (10, 10); (20, 20); (25, 25) ])
    (run ~budget:25 ~step:10 ~ready_at:max_int);
  Alcotest.check asked "stops at the first yes" (20, [ (0, 0); (10, 10); (20, 20) ])
    (run ~budget:100 ~step:10 ~ready_at:15);
  Alcotest.check asked "no budget, no step" (0, [ (0, 0) ])
    (run ~budget:0 ~step:10 ~ready_at:max_int)

(* A state change without its signal leaves a parked waiter on a true
   predicate; the audit names it at the next pick.  In the first case
   that pick is main's own second advance, which main alone can win: the
   audit runs on picks taken inside [advance] too. *)
let test_lost_wakeup_audited () =
  Sched.audit_wakeups true;
  let c = Sched.cond () and flag = ref false in
  Alcotest.check_raises "unsignalled change is reported" (Sched.Lost_wakeup "flag")
    (fun () ->
      ignore
        (Sched.run (fun () ->
             ignore
               (Sched.spawn "waiter" (fun () ->
                    Sched.wait_on [ c ] ~label:"flag" (fun () -> !flag)));
             Sched.advance 10;
             flag := true;
             Sched.advance 10)));
  flag := false;
  let woke_at = ref 0 in
  ignore
    (Sched.run (fun () ->
         ignore
           (Sched.spawn "waiter" (fun () ->
                Sched.wait_on [ c ] ~label:"flag" (fun () -> !flag);
                woke_at := Sched.now ()));
         Sched.advance 10;
         flag := true;
         Sched.signal c;
         Sched.advance 10));
  check Alcotest.int "a signalled waiter wakes, dragged to the setter's clock" 10 !woke_at

let suite =
  [
    Alcotest.test_case "single thread accumulates time" `Quick test_single_thread_time;
    Alcotest.test_case "min-clock scheduling order" `Quick test_min_clock_order;
    Alcotest.test_case "wait_until wakes on predicate" `Quick test_wait_until_wakes;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "daemons are cancelled at exit" `Quick test_daemons_do_not_block_exit;
    Alcotest.test_case "spawn inherits parent clock" `Quick test_spawn_inherits_clock;
    Alcotest.test_case "thread exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "simulation is deterministic" `Quick test_determinism;
    Alcotest.test_case "helpers degrade gracefully outside run" `Quick test_outside_run_fallbacks;
    Alcotest.test_case "now/self read 0 inside predicates" `Quick test_predicates_read_zero;
    Alcotest.test_case "a polled predicate runs once per pick" `Quick test_poll_once_per_pick;
    Alcotest.test_case "killed daemon's cleanup reads its own clock" `Quick
      test_killed_daemon_reads_own_clock;
    Alcotest.test_case "deadlock report lists waiters in spawn order" `Quick
      test_deadlock_report_spawn_order;
    Alcotest.test_case "a switch allocates only its continuation" `Quick
      test_switch_allocation_guard;
    Alcotest.test_case "a ready wait performs no switch" `Quick test_ready_wait_no_switch;
    QCheck_alcotest.to_alcotest prop_sched_matches_reference;
    Alcotest.test_case "rng int bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "resource serializes bandwidth" `Quick test_resource_serializes;
    Alcotest.test_case "resource latency overlaps" `Quick test_resource_latency_overlaps;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "latency percentiles" `Quick test_latency_percentiles;
    Alcotest.test_case "cycle conversions" `Quick test_cycles_conversions;
    Alcotest.test_case "poll: bounded stepping wait" `Quick test_poll_bounded;
    Alcotest.test_case "lost wakeup: unsignalled change is audited" `Quick
      test_lost_wakeup_audited;
  ]
