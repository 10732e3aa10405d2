exception Deadlock of string
exception Killed
exception Lost_wakeup of string
exception Halted

module Trace = Dudetm_trace.Trace

(* A switch allocates only the continuation [perform] captures: a
   paused or waiting thread keeps it, and a waiting one its predicate,
   label and conds, in its own record.  The states are constants, so
   [state] is an immediate type and storing one needs no write barrier. *)
type thread = {
  id : int;
  name : string;
  daemon : bool;
  mutable clock : int;
  mutable state : state;
  mutable start : unit -> unit;  (* Not_started; else [ignore] *)
  mutable k : (unit, unit) Effect.Deep.continuation;  (* Paused or Waiting; else [no_k] *)
  mutable pred : unit -> bool;  (* Waiting; else [no_pred] *)
  mutable label : string;  (* the last wait's *)
  mutable on : cond list;  (* Waiting; else [] *)
  mutable slot : int;  (* index in the run heap or in the waiter array *)
  mutable parked : int;  (* picks done when it parked; -1 when not parked *)
  mutable park_seq : int;  (* stamp of its current park in its conds' entries *)
}

and state =
  | Not_started
  | Running
  | Paused
  | Waiting
  | Finished

(* The threads parked on a cond, each stamped with the [park_seq] of the
   park that put it there.  An entry whose thread has since been woken
   (through another cond) or parked again is stale: [signal] skips it and
   [park] compacts it away before growing the arrays. *)
and cond = {
  mutable n : int;
  mutable parkers : thread array;
  mutable stamps : int array;
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Wait : unit Effect.t

(* The continuation a thread holds while it is neither paused nor
   waiting: one captured here, once, and never resumed. *)
let no_k =
  let open Effect.Deep in
  let captured : (unit, unit) continuation option ref = ref None in
  try_with Effect.perform Yield
    {
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Yield -> Some (fun (k : (unit, unit) continuation) -> captured := Some k)
          | _ -> None);
    };
  Option.get !captured

let no_pred () = false

type strategy =
  | Min_clock
  | Choice of (step:int -> candidates:int -> int)

(* Every live thread is in exactly one place: running, [held] (it has just
   advanced and is not yet back in the heap), the run heap (Not_started or
   Paused, a binary min-heap on (clock, id)), the waiter array, or parked
   on its conds (Waiting with [parked >= 0]). *)
type sched = {
  mutable all : thread array;  (* every thread ever spawned; ids are positions *)
  mutable nthreads : int;
  mutable heap : thread array;
  mutable hlen : int;
  mutable waiters : thread array;
  mutable ready : bool array;  (* ready.(i): waiters.(i)'s predicate at this pick *)
  mutable wlen : int;
  mutable running : thread;  (* [nobody] between resumes and while predicates run *)
  mutable held : thread;  (* [nobody] when no thread is held *)
  mutable decided : int;  (* id of the winner [advance] decided and lost to; -1 when none *)
  mutable live_non_daemon : int;
  mutable watermark : int;
  mutable steps : int;  (* decision points (>= 2 runnable) so far *)
  mutable picks : int;  (* picks that resumed a thread so far *)
  (* The drag stack: (pick, winner clock) entries, clocks strictly
     decreasing, so the first entry after pick p holds the largest winner
     clock of every pick after p.  Under Min_clock it holds one entry. *)
  mutable drag_pick : int array;
  mutable drag_clock : int array;
  mutable dlen : int;
  mutable nparked : int;
  mutable parks : int;  (* parks so far: the next park's stamp *)
  joined : cond list;  (* one cond: [finish] signals it, [join] parks on it *)
  strategy : strategy;
}

let new_thread ~id ~name ~daemon ~clock ~state start =
  { id; name; daemon; clock; state; start; k = no_k; pred = no_pred; label = ""; on = [];
    slot = -1; parked = -1; park_seq = 0 }

(* The placeholder for "no thread": [now]/[self] read its clock and id (both
   0) outside any thread, and [advance] leaves its clock alone. *)
let nobody = new_thread ~id:0 ~name:"main" ~daemon:true ~clock:0 ~state:Finished ignore

(* The simulation is single-OS-thread by construction, so one global current
   scheduler is safe and keeps the public API free of a [t] parameter. *)
let current : sched option ref = ref None

(* Set by the test runner only: see [audit_parked]. *)
let audit = ref false

let audit_wakeups on = audit := on

let less a b = a.clock < b.clock || (a.clock = b.clock && a.id < b.id)

(* The first [len] slots of [arr] in a fresh array of [size] slots, the
   rest [fill]: one allocation, where [Array.append] of a fresh filler
   makes two. *)
let resized arr len size fill =
  let a = Array.make size fill in
  Array.blit arr 0 a 0 len;
  a

let grow arr len fill =
  let n = Array.length arr in
  if len < n then arr else resized arr n (n + max 8 len) fill

(* ---- the run heap ---- *)

let set_heap s i t =
  s.heap.(i) <- t;
  t.slot <- i

let rec sift_up s i t =
  let p = (i - 1) / 2 in
  if i > 0 && less t s.heap.(p) then begin
    set_heap s i s.heap.(p);
    sift_up s p t
  end
  else set_heap s i t

let rec sift_down s i t =
  let l = (2 * i) + 1 in
  if l >= s.hlen then set_heap s i t
  else begin
    let c = if l + 1 < s.hlen && less s.heap.(l + 1) s.heap.(l) then l + 1 else l in
    if less s.heap.(c) t then begin
      set_heap s i s.heap.(c);
      sift_down s c t
    end
    else set_heap s i t
  end

let heap_push s t =
  s.heap <- grow s.heap s.hlen nobody;
  s.hlen <- s.hlen + 1;
  sift_up s (s.hlen - 1) t

(* Put [t] where heap slot [i] was, in one sift. *)
let heap_replace s i t =
  if i > 0 && less t s.heap.((i - 1) / 2) then sift_up s i t else sift_down s i t

let heap_remove s i =
  s.hlen <- s.hlen - 1;
  let last = s.heap.(s.hlen) in
  s.heap.(s.hlen) <- nobody;
  if i < s.hlen then heap_replace s i last

(* ---- the waiter array ---- *)

let add_waiter s t =
  s.waiters <- grow s.waiters s.wlen nobody;
  s.ready <- grow s.ready s.wlen false;
  s.waiters.(s.wlen) <- t;
  t.slot <- s.wlen;
  s.wlen <- s.wlen + 1

let remove_waiter s t =
  s.wlen <- s.wlen - 1;
  let last = s.waiters.(s.wlen) in
  s.waiters.(t.slot) <- last;
  last.slot <- t.slot;
  s.waiters.(s.wlen) <- nobody

(* ---- parking ---- *)

let cond () = { n = 0; parkers = [||]; stamps = [||] }

let live_entry c i =
  let t = c.parkers.(i) in
  t.parked >= 0 && t.park_seq = c.stamps.(i)

let add_entry c t =
  if c.n = Array.length c.parkers then begin
    let live = ref 0 in
    for i = 0 to c.n - 1 do
      if live_entry c i then begin
        c.parkers.(!live) <- c.parkers.(i);
        c.stamps.(!live) <- c.stamps.(i);
        incr live
      end
    done;
    Array.fill c.parkers !live (c.n - !live) nobody;
    c.n <- !live;
    if c.n = Array.length c.parkers then begin
      let size = max 2 (2 * c.n) in
      c.parkers <- resized c.parkers c.n size nobody;
      c.stamps <- resized c.stamps c.n size 0
    end
  end;
  c.parkers.(c.n) <- t;
  c.stamps.(c.n) <- t.park_seq;
  c.n <- c.n + 1

let rec add_entries t = function
  | [] -> ()
  | c :: on ->
    add_entry c t;
    add_entries t on

(* [t] leaves the polling set until one of [on] is signalled; the picks it
   misses are the ones after [s.picks]. *)
let park (s : sched) t on =
  s.parks <- s.parks + 1;
  t.park_seq <- s.parks;
  t.parked <- s.picks;
  s.nparked <- s.nparked + 1;
  add_entries t on

(* The largest winner clock of the picks after [p], or [min_int]. *)
let missed_drag s p =
  let lo = ref 0 and hi = ref s.dlen in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.drag_pick.(mid) > p then hi := mid else lo := mid + 1
  done;
  if !lo < s.dlen then s.drag_clock.(!lo) else min_int

(* Give a parked thread the drag of every pick it missed, exactly as if it
   had been polled (false) and dragged at each of them. *)
let settle s t =
  let c = missed_drag s t.parked in
  if t.clock < c then t.clock <- c;
  t.parked <- -1;
  s.nparked <- s.nparked - 1

let signal c =
  if c.n > 0 then begin
    let n = c.n in
    c.n <- 0;
    for i = 0 to n - 1 do
      (match !current with
      | Some s when live_entry c i ->
        let t = c.parkers.(i) in
        settle s t;
        add_waiter s t
      | _ -> ());
      c.parkers.(i) <- nobody
    done
  end

(* Record this pick's winner clock on the drag stack. *)
let push_drag s clock =
  s.picks <- s.picks + 1;
  if s.nparked = 0 then s.dlen <- 0
  else
    while s.dlen > 0 && s.drag_clock.(s.dlen - 1) <= clock do
      s.dlen <- s.dlen - 1
    done;
  s.drag_pick <- grow s.drag_pick s.dlen 0;
  s.drag_clock <- grow s.drag_clock s.dlen 0;
  s.drag_pick.(s.dlen) <- s.picks;
  s.drag_clock.(s.dlen) <- clock;
  s.dlen <- s.dlen + 1

(* The self-check the test runner turns on: a parked predicate that holds
   at a pick means a state change that skipped its [signal]. *)
let audit_parked s =
  for i = 0 to s.nthreads - 1 do
    let t = s.all.(i) in
    if t.parked >= 0 && t.pred () then raise (Lost_wakeup t.label)
  done

(* [finish] runs on the scheduler's own stack (retc/exnc/kill_daemons):
   trace events here carry the thread's clock and id explicitly. *)
let finish s t =
  match t.state with
  | Finished -> ()
  | _ ->
    t.state <- Finished;
    Trace.instant_at ~ts:t.clock ~tid:t.id ~cat:"sched" "finish" 0;
    if not t.daemon then s.live_non_daemon <- s.live_non_daemon - 1;
    List.iter signal s.joined

(* Both answers are built once per thread, so handling a [Yield] or a
   [Wait] allocates nothing beyond the continuation. *)
let handler s t =
  let open Effect.Deep in
  let yielded =
    Some
      (fun (k : (unit, unit) continuation) ->
        t.k <- k;
        t.state <- Paused;
        s.held <- t)
  in
  let waited =
    Some
      (fun (k : (unit, unit) continuation) ->
        t.k <- k;
        t.state <- Waiting;
        match t.on with [] -> add_waiter s t | on -> park s t on)
  in
  {
    retc = (fun () -> finish s t);
    exnc =
      (fun e ->
        match e with
        | Killed -> finish s t
        | e ->
          (* A crash of any simulated thread is a bug in the experiment:
             surface it instead of silently finishing. *)
          finish s t;
          raise e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Yield -> yielded
        | Wait -> waited
        | _ -> None);
  }

(* Poll every waiter's predicate once, caching it in [ready]; return the
   ready waiter with the least (clock, id), or [nobody]. *)
let poll s =
  let best = ref nobody in
  for i = 0 to s.wlen - 1 do
    let t = s.waiters.(i) in
    let r = t.pred () in
    s.ready.(i) <- r;
    if r && (!best == nobody || less t !best) then best := t
  done;
  !best

(* A blocked thread whose predicate is still false has its clock dragged up
   to the winning clock, modelling time passing while it polls; one that
   waits on conds then parks.  Downwards, so [remove_waiter]'s swap only
   moves an already visited waiter. *)
let drag_waiters s w =
  for i = s.wlen - 1 downto 0 do
    if not s.ready.(i) then begin
      let t = s.waiters.(i) in
      if t.clock < w.clock then t.clock <- w.clock;
      match t.on with
      | [] -> ()
      | on ->
        remove_waiter s t;
        park s t on
    end
  done

let min_of a b = if b == nobody || (a != nobody && less a b) then a else b

(* Every runnable thread, sorted by (clock, id). *)
let candidates s held =
  let acc = ref (if held == nobody then [] else [ held ]) in
  for i = 0 to s.hlen - 1 do
    acc := s.heap.(i) :: !acc
  done;
  for i = 0 to s.wlen - 1 do
    if s.ready.(i) then acc := s.waiters.(i) :: !acc
  done;
  Array.of_list (List.sort (fun a b -> compare (a.clock, a.id) (b.clock, b.id)) !acc)

(* Decide the next thread to resume, polling every waiter once.  Min_clock
   takes the runnable thread with the smallest (clock, id) — conservative
   discrete-event order.  A Choice strategy is consulted at every decision
   point (>= 2 runnable threads) with the candidates sorted in that same
   order, so index 0 degenerates to Min_clock and any other index is a
   legal preemption. *)
let decide s held =
  if !audit then audit_parked s;
  let first_ready = poll s in
  match s.strategy with
  | Min_clock -> min_of held (min_of (if s.hlen > 0 then s.heap.(0) else nobody) first_ready)
  | Choice choose -> (
    match candidates s held with
    | [||] -> nobody
    | [| t |] -> t
    | sorted ->
      let n = Array.length sorted in
      let step = s.steps in
      s.steps <- step + 1;
      let i = choose ~step ~candidates:n in
      sorted.(if i < 0 || i >= n then 0 else i))

(* Act on a decision over the answers [decide] cached.  The winner leaves
   its heap slot or waiter slot, and a held thread that lost goes back
   into the heap (in the winner's slot when that was the heap's). *)
let commit s w held =
  push_drag s w.clock;
  drag_waiters s w;
  (if w != held then
     match w.state with
     | Waiting ->
       remove_waiter s w;
       if held != nobody then heap_push s held
     | _ -> if held != nobody then heap_replace s w.slot held else heap_remove s w.slot);
  if w.clock > s.watermark then s.watermark <- w.clock

(* The decision [advance] made, or a fresh one. *)
let pick s =
  let held = s.held in
  if held != nobody then s.held <- nobody;
  let w =
    if s.decided >= 0 then begin
      let w = s.all.(s.decided) in
      s.decided <- -1;
      w
    end
    else decide s held
  in
  if w != nobody then commit s w held;
  w

(* The thread's continuation, its record cleared so that it holds no
   dead closure while it runs (a paused thread's predicate is already
   cleared, which saves it two write barriers). *)
let take_k t =
  let k = t.k in
  t.k <- no_k;
  if t.pred != no_pred then begin
    t.pred <- no_pred;
    t.on <- []
  end;
  k

let resume s t =
  let st = t.state in
  t.state <- Running;
  s.running <- t;
  (match st with
  | Not_started ->
    let f = t.start in
    t.start <- ignore;
    Effect.Deep.match_with f () (handler s t)
  | Paused | Waiting -> Effect.Deep.continue (take_k t) ()
  | Running | Finished -> assert false);
  s.running <- nobody

let blocked_report s =
  Array.sub s.all 0 s.nthreads
  |> Array.to_list
  |> List.filter_map (fun t ->
         match t.state with
         | Waiting -> Some (Printf.sprintf "%d:%s waiting on %s" t.id t.name t.label)
         | _ -> None)
  |> String.concat "; "

(* In spawn order; threads spawned by a daemon's cleanup are never run. *)
let kill_daemons s =
  for i = 0 to s.nthreads - 1 do
    let t = s.all.(i) in
    if t.parked >= 0 then settle s t;
    match t.state with
    | Not_started -> finish s t
    | Paused | Waiting ->
      t.state <- Running;
      s.running <- t;
      (try Effect.Deep.discontinue (take_k t) Killed with Killed -> ());
      s.running <- nobody;
      finish s t
    | Running | Finished -> ()
  done

let min_clock = Min_clock

(* Stateless seeded choice: hashing (seed, step) through splitmix64 keeps
   the strategy value reusable across runs with identical schedules. *)
let random_priority ~seed =
  Choice
    (fun ~step ~candidates ->
      let rng = Rng.create ((seed * 0x3C6EF372) lxor (step * 0x9E3779B9) lxor seed) in
      Rng.int rng candidates)

let run ?(strategy = Min_clock) main =
  if !current <> None then invalid_arg "Sched.run: nested simulations are not supported";
  let t0 = new_thread ~id:0 ~name:"main" ~daemon:false ~clock:0 ~state:Not_started main in
  let s =
    {
      all = [| t0 |];
      nthreads = 1;
      heap = [||];
      hlen = 0;
      waiters = [||];
      ready = [||];
      wlen = 0;
      running = nobody;
      held = nobody;
      decided = -1;
      live_non_daemon = 1;
      watermark = 0;
      steps = 0;
      picks = 0;
      drag_pick = [||];
      drag_clock = [||];
      dlen = 0;
      nparked = 0;
      parks = 0;
      joined = [ cond () ];
      strategy;
    }
  in
  heap_push s t0;
  current := Some s;
  (* Threads still parked when a run fails keep stale entries in their
     conds: unmark them so a later [signal] skips them. *)
  let release () =
    for i = 0 to s.nthreads - 1 do
      s.all.(i).parked <- -1
    done;
    current := None
  in
  (try
     let rec loop () =
       if s.live_non_daemon > 0 then begin
         let t = pick s in
         if t == nobody then raise (Deadlock (blocked_report s));
         resume s t;
         loop ()
       end
     in
     loop ();
     kill_daemons s
   with
   | Halted -> ()
   | e ->
     release ();
     raise e);
  release ();
  s.watermark

(* The pick is decided here, with the advancing thread as the held one:
   when it wins, the pick is committed and it keeps running without the
   [Yield] round trip; when it loses, the run loop commits the same
   decision, so no waiter is polled twice in one pick.  A daemon's cleanup
   once the run is ending just yields. *)
let advance n =
  match !current with
  | Some s when s.running != nobody ->
    let t = s.running in
    t.clock <- t.clock + max 0 n;
    if s.live_non_daemon > 0 then begin
      s.running <- nobody;
      let w = decide s t in
      if w == t then begin
        s.running <- t;
        commit s t t
      end
      else begin
        s.decided <- w.id;
        Effect.perform Yield
      end
    end
    else Effect.perform Yield
  | _ -> ()

let yield () = advance 1

let poll ~budget ~step ready =
  let elapsed = ref 0 in
  while (not (ready !elapsed)) && !elapsed < budget do
    let d = min step (budget - !elapsed) in
    advance d;
    elapsed := !elapsed + d
  done;
  !elapsed

(* The first evaluation runs inline, with no thread current (so
   [now]/[self] read 0 in it, as at every poll): a predicate that holds
   returns at once and performs nothing, and a raising one leaves the
   caller current.  Only a false one parks its state in the thread and
   performs the constant [Wait].  A label is a constant of its call site,
   so a thread waiting at one site stores it (a write barrier) once.  [on]
   is [[]] for a polled wait. *)
let wait on label pred =
  match !current with
  | Some s when s.running != nobody ->
    let t = s.running in
    s.running <- nobody;
    let ready =
      match pred () with
      | r -> r
      | exception e ->
        s.running <- t;
        raise e
    in
    s.running <- t;
    if not ready then begin
      t.pred <- pred;
      if t.label != label then t.label <- label;
      t.on <- on;
      Effect.perform Wait
    end
  | _ ->
    if not (pred ()) then
      raise (Deadlock (Printf.sprintf "wait_until %S outside a simulation" label))

let wait_until ?(label = "?") pred = wait [] label pred

let wait_on on ?(label = "?") pred =
  match on with [] -> invalid_arg "Sched.wait_on: no cond" | _ -> wait on label pred

let join ?(label = "join") ids =
  match !current with
  | Some s when s.running != nobody ->
    if List.exists (fun id -> id < 0 || id >= s.nthreads) ids then
      invalid_arg "Sched.join: unknown id";
    let finished id = match s.all.(id).state with Finished -> true | _ -> false in
    wait s.joined label (fun () -> List.for_all finished ids)
  | _ -> invalid_arg "Sched.join outside a simulation"

let halt () =
  match !current with
  | Some s when s.running != nobody -> raise Halted
  | _ -> invalid_arg "Sched.halt outside a simulation"

let now () = match !current with None -> 0 | Some s -> s.running.clock

let self () = match !current with None -> 0 | Some s -> s.running.id

let spawn ?(daemon = false) name f =
  match !current with
  | Some s when s.running != nobody ->
    let parent = s.running in
    let id = s.nthreads in
    let t = new_thread ~id ~name ~daemon ~clock:parent.clock ~state:Not_started f in
    s.all <- grow s.all id nobody;
    s.all.(id) <- t;
    s.nthreads <- id + 1;
    Trace.note_thread ~tid:id name;
    Trace.instant_at ~ts:parent.clock ~tid:parent.id ~cat:"sched" "spawn" id;
    if not daemon then s.live_non_daemon <- s.live_non_daemon + 1;
    heap_push s t;
    id
  | _ -> invalid_arg "Sched.spawn outside a simulation"

let global_now () = match !current with None -> 0 | Some s -> s.watermark

let running () = !current <> None

(* Hand the tracer our deterministic clock and thread identity.  Both fall
   back to 0/"main" outside a thread, so tracing recovery paths that run
   before [Sched.run] stays safe (their spans just have zero duration). *)
let () =
  Trace.set_time_source ~now ~self:(fun () ->
      match !current with None -> (0, "main") | Some s -> (s.running.id, s.running.name))
