(* One open-loop leg: every session owns a Poisson arrival process whose
   due times are absolute, drawn up front from the leg seed, and a window
   of client fibers ("slots") that issue the session's requests in order.
   A free slot sleeps until the next due time; when every slot is busy
   the request goes out late, which counts as a window stall.  Latency is
   timed from the due time, so a generator that falls behind shows up in
   the latency it reports instead of hiding it. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Cycles = Dudetm_sim.Cycles

type outcome = Acked_write | Replied_read | Shed | Aborted

type result = {
  writes : Samples.t;  (** due -> durable ack, cycles *)
  reads : Samples.t;  (** due -> reply, cycles *)
  lag : Samples.t;  (** due -> submit: generator lateness, cycles *)
  mutable stalls : int;  (** requests issued after their due time *)
  mutable submitted : int;
  mutable shed : int;
  mutable aborted : int;
  mutable t0 : int;
  mutable t_end : int;  (** last reply *)
}

let create () =
  {
    writes = Samples.create ();
    reads = Samples.create ();
    lag = Samples.create ();
    stalls = 0;
    submitted = 0;
    shed = 0;
    aborted = 0;
    t0 = 0;
    t_end = 0;
  }

let completed r = Samples.count r.writes + Samples.count r.reads

let elapsed r = r.t_end - r.t0

(* Poisson arrivals at [n] absolute due times after [t0], mean gap
   [gap] cycles. *)
let due_times rng ~t0 ~n ~gap =
  let t = ref t0 in
  Array.init n (fun _ ->
      let u = Rng.float rng in
      t := !t + max 1 (int_of_float (-.log (1.0 -. u) *. gap));
      !t)

(* Run inside [Sched.run] from the current fiber, which waits for every
   reply.  [gen rng ~session ~idx] draws request [idx] of a session;
   [issue ~session req] submits it and blocks until its reply. *)
let run ~seed ~sessions ~slots ~reqs ~mtps ~gen ~issue =
  let r = create () in
  let t0 = Sched.now () in
  r.t0 <- t0;
  r.t_end <- t0;
  let gap = float_of_int sessions *. Cycles.per_second /. (mtps *. 1e6) in
  let live = ref 0 in
  for s = 0 to sessions - 1 do
    let rng = Rng.create ((seed * 1_000_003) + (s * 7919) + 1) in
    let dues = due_times (Rng.split rng) ~t0 ~n:reqs ~gap in
    let ops = Array.init reqs (fun idx -> gen rng ~session:s ~idx) in
    let next = ref 0 in
    for w = 0 to slots - 1 do
      incr live;
      ignore
        (Sched.spawn
           (Printf.sprintf "client-%d-%d" s w)
           (fun () ->
             while !next < reqs do
               let i = !next in
               incr next;
               let due = dues.(i) in
               let now = Sched.now () in
               if now < due then Sched.advance (due - now)
               else if now > due then r.stalls <- r.stalls + 1;
               Samples.add r.lag (Sched.now () - due);
               r.submitted <- r.submitted + 1;
               (match issue ~session:s ops.(i) with
               | Acked_write -> Samples.add r.writes (Sched.now () - due)
               | Replied_read -> Samples.add r.reads (Sched.now () - due)
               | Shed -> r.shed <- r.shed + 1
               | Aborted -> r.aborted <- r.aborted + 1);
               if Sched.now () > r.t_end then r.t_end <- Sched.now ()
             done;
             decr live))
    done
  done;
  Sched.wait_until ~label:"perfbench leg" (fun () -> !live = 0);
  r
