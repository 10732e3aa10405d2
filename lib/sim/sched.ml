exception Deadlock of string
exception Killed

module Trace = Dudetm_trace.Trace

type _ Effect.t +=
  | Advance : int -> unit Effect.t
  | Wait : (unit -> bool) * string -> unit Effect.t
  | Spawn : bool * string * (unit -> unit) -> int Effect.t
  | Now : int Effect.t
  | Self : (int * string) Effect.t

type state =
  | Not_started of (unit -> unit)
  | Running
  | Paused of (unit, unit) Effect.Deep.continuation
  | Waiting of { pred : unit -> bool; label : string; k : (unit, unit) Effect.Deep.continuation }
  | Finished

type thread = {
  id : int;
  name : string;
  daemon : bool;
  mutable clock : int;
  mutable state : state;
}

type strategy =
  | Min_clock
  | Choice of (step:int -> candidates:int -> int)

type sched = {
  mutable threads : thread list;  (* in spawn order; ids are positions *)
  mutable rev_new : thread list;  (* threads spawned since last loop pass *)
  mutable next_id : int;
  mutable live_non_daemon : int;
  mutable watermark : int;
  mutable steps : int;  (* decision points (>= 2 runnable) so far *)
  strategy : strategy;
  trace : bool;
}

(* The simulation is single-OS-thread by construction, so one global current
   scheduler is safe and keeps the public API free of a [t] parameter. *)
let current : sched option ref = ref None

(* [finish] runs on the scheduler's own stack (retc/exnc/kill_daemons), where
   the Now/Self effects are unhandled — trace events here must carry the
   thread's clock and id explicitly. *)
let finish s t =
  if t.state <> Finished then begin
    t.state <- Finished;
    Trace.instant_at ~ts:t.clock ~tid:t.id ~cat:"sched" "finish" 0;
    if not t.daemon then s.live_non_daemon <- s.live_non_daemon - 1
  end

let handler s t =
  let open Effect.Deep in
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
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Advance n ->
          Some
            (fun (k : (a, unit) continuation) ->
              t.clock <- t.clock + max 0 n;
              t.state <- Paused k)
        | Wait (pred, label) ->
          Some
            (fun k ->
              if pred () then continue k ()
              else t.state <- Waiting { pred; label; k })
        | Spawn (daemon, name, f) ->
          Some
            (fun k ->
              let id = s.next_id in
              s.next_id <- id + 1;
              let nt = { id; name; daemon; clock = t.clock; state = Not_started f } in
              Trace.note_thread ~tid:id name;
              Trace.instant_at ~ts:t.clock ~tid:t.id ~cat:"sched" "spawn" id;
              s.rev_new <- nt :: s.rev_new;
              if not daemon then s.live_non_daemon <- s.live_non_daemon + 1;
              continue k id)
        | Now -> Some (fun k -> continue k t.clock)
        | Self -> Some (fun k -> continue k (t.id, t.name))
        | _ -> None);
  }

let absorb_new s =
  if s.rev_new <> [] then begin
    s.threads <- s.threads @ List.rev s.rev_new;
    s.rev_new <- []
  end

(* A blocked thread whose predicate is still false has its clock dragged up
   to the winning clock, modelling time passing while it polls. *)
let drag_waiters s w =
  List.iter
    (fun t ->
      match t.state with
      | Waiting { pred; _ } when not (pred ()) ->
        if t.clock < w.clock then t.clock <- w.clock
      | _ -> ())
    s.threads

let runnable t =
  match t.state with
  | Not_started _ | Paused _ -> true
  | Waiting { pred; _ } -> pred ()
  | Running | Finished -> false

(* Pick the next thread to resume.  Min_clock takes the runnable thread with
   the smallest (clock, id) — conservative discrete-event order.  A Choice
   strategy is consulted at every decision point (>= 2 runnable threads)
   with the candidates sorted in that same order, so index 0 degenerates to
   Min_clock and any other index is a legal preemption. *)
let pick s =
  let best =
    match s.strategy with
    | Min_clock ->
      let best = ref None in
      List.iter
        (fun t ->
          if runnable t then
            match !best with
            | None -> best := Some t
            | Some b -> if t.clock < b.clock then best := Some t)
        s.threads;
      !best
    | Choice choose -> (
      match List.filter runnable s.threads with
      | [] -> None
      | [ t ] -> Some t
      | cands ->
        let sorted =
          List.sort (fun a b -> compare (a.clock, a.id) (b.clock, b.id)) cands
        in
        let n = List.length sorted in
        let step = s.steps in
        s.steps <- step + 1;
        let i = choose ~step ~candidates:n in
        let i = if i < 0 || i >= n then 0 else i in
        Some (List.nth sorted i))
  in
  (match best with Some w -> drag_waiters s w | None -> ());
  best

let resume s t =
  if t.clock > s.watermark then s.watermark <- t.clock;
  if s.trace then
    Printf.eprintf "[sched %10d] resume %d:%s\n%!" t.clock t.id t.name;
  match t.state with
  | Not_started f ->
    t.state <- Running;
    Effect.Deep.match_with f () (handler s t)
  | Paused k ->
    t.state <- Running;
    Effect.Deep.continue k ()
  | Waiting { k; _ } ->
    t.state <- Running;
    Effect.Deep.continue k ()
  | Running | Finished -> assert false

let blocked_report s =
  s.threads
  |> List.filter_map (fun t ->
         match t.state with
         | Waiting { label; _ } ->
           Some (Printf.sprintf "%d:%s waiting on %s" t.id t.name label)
         | _ -> None)
  |> String.concat "; "

let kill_daemons s =
  List.iter
    (fun t ->
      match t.state with
      | Not_started _ -> finish s t
      | Paused k | Waiting { k; _ } ->
        t.state <- Running;
        (try Effect.Deep.discontinue k Killed with Killed -> ());
        finish s t
      | Running | Finished -> ())
    s.threads

let min_clock = Min_clock

(* Stateless seeded choice: hashing (seed, step) through splitmix64 keeps
   the strategy value reusable across runs with identical schedules. *)
let random_priority ~seed =
  Choice
    (fun ~step ~candidates ->
      let rng = Rng.create ((seed * 0x3C6EF372) lxor (step * 0x9E3779B9) lxor seed) in
      Rng.int rng candidates)

let run ?(trace = false) ?(strategy = Min_clock) main =
  if !current <> None then invalid_arg "Sched.run: nested simulations are not supported";
  let s =
    {
      threads = [];
      rev_new = [];
      next_id = 1;
      live_non_daemon = 1;
      watermark = 0;
      steps = 0;
      strategy;
      trace;
    }
  in
  let t0 = { id = 0; name = "main"; daemon = false; clock = 0; state = Not_started main } in
  s.threads <- [ t0 ];
  current := Some s;
  let release () = current := None in
  (try
     let rec loop () =
       absorb_new s;
       if s.live_non_daemon > 0 then
         match pick s with
         | Some t ->
           resume s t;
           loop ()
         | None -> raise (Deadlock (blocked_report s))
     in
     loop ();
     absorb_new s;
     kill_daemons s
   with e ->
     release ();
     raise e);
  release ();
  s.watermark

let perform_default : 'a. 'a Effect.t -> 'a -> 'a =
 fun eff default -> try Effect.perform eff with Effect.Unhandled _ -> default

let advance n = perform_default (Advance n) ()

let yield () = advance 1

let wait_until ?(label = "?") pred =
  try Effect.perform (Wait (pred, label))
  with Effect.Unhandled _ ->
    if not (pred ()) then
      raise (Deadlock (Printf.sprintf "wait_until %S outside a simulation" label))

let now () = perform_default Now 0

let self () = fst (perform_default Self (0, "<main>"))

let spawn ?(daemon = false) name f =
  try Effect.perform (Spawn (daemon, name, f))
  with Effect.Unhandled _ -> invalid_arg "Sched.spawn outside a simulation"

let global_now () = match !current with None -> 0 | Some s -> s.watermark

let running () = !current <> None

(* Hand the tracer our deterministic clock and thread identity.  Both fall
   back to 0/"main" outside a simulation, so tracing recovery paths that run
   before [Sched.run] stays safe (their spans just have zero duration). *)
let () =
  Trace.set_time_source
    ~now:(fun () -> now ())
    ~self:(fun () -> perform_default Self (0, "main"))
