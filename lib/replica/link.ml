module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Resource = Dudetm_sim.Resource
module Trace = Dudetm_trace.Trace

type faults = {
  drop : float;
  duplicate : float;
  reorder : float;
  delay : float;
  delay_cycles : int;
  corrupt : float;
}

let no_faults =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; delay = 0.0; delay_cycles = 0; corrupt = 0.0 }

type config = {
  latency : int;
  bandwidth_gbps : float;
  faults : faults;
  seed : int;
}

let default_config = { latency = 20_000; bandwidth_gbps = 10.0; faults = no_faults; seed = 1 }

type t = {
  label : string;
  cfg : config;
  channel : Resource.t;
  rng : Rng.t;
  (* In-flight frames: a binary min-heap on (deliver_at, stamp) over the
     parallel arrays' first [size] slots; slots past [size] hold
     [Bytes.empty], so a delivered frame is not retained.  Stamps count
     sends and are unique, so the order is total: same-cycle frames leave
     in send order and delivery is deterministic, faults included. *)
  mutable deliver_at : int array;
  mutable stamp : int array;
  mutable frames : bytes array;
  mutable size : int;
  mutable next_stamp : int;
  mutable partitioned : bool;
  stats : Stats.t;
}

let create ~label cfg =
  {
    label;
    cfg;
    channel = Resource.create_gbps cfg.bandwidth_gbps;
    rng = Rng.create (cfg.seed lxor Hashtbl.hash label lxor 0x11fa57);
    deliver_at = Array.make 16 0;
    stamp = Array.make 16 0;
    frames = Array.make 16 Bytes.empty;
    size = 0;
    next_stamp = 0;
    partitioned = false;
    stats = Stats.create ();
  }

(* Slot [i] leaves before the frame [(at, st)]. *)
let before t i at st = t.deliver_at.(i) < at || (t.deliver_at.(i) = at && t.stamp.(i) < st)

let move t ~src ~dst =
  t.deliver_at.(dst) <- t.deliver_at.(src);
  t.stamp.(dst) <- t.stamp.(src);
  t.frames.(dst) <- t.frames.(src)

let place t i at st f =
  t.deliver_at.(i) <- at;
  t.stamp.(i) <- st;
  t.frames.(i) <- f

let rec sift_up t i at st f =
  let p = (i - 1) / 2 in
  if i > 0 && not (before t p at st) then begin
    move t ~src:p ~dst:i;
    sift_up t p at st f
  end
  else place t i at st f

let rec sift_down t n i at st f =
  let l = (2 * i) + 1 in
  if l >= n then place t i at st f
  else begin
    let c =
      if l + 1 < n && before t (l + 1) t.deliver_at.(l) t.stamp.(l) then l + 1 else l
    in
    if before t c at st then begin
      move t ~src:c ~dst:i;
      sift_down t n c at st f
    end
    else place t i at st f
  end

let grow a fill =
  let g = Array.make (2 * Array.length a) fill in
  Array.blit a 0 g 0 (Array.length a);
  g

let insert t deliver_at payload =
  t.next_stamp <- t.next_stamp + 1;
  if t.size = Array.length t.frames then begin
    t.deliver_at <- grow t.deliver_at 0;
    t.stamp <- grow t.stamp 0;
    t.frames <- grow t.frames Bytes.empty
  end;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) deliver_at t.next_stamp payload

let pop t =
  let top = t.frames.(0) in
  t.size <- t.size - 1;
  let n = t.size in
  let at = t.deliver_at.(n) and st = t.stamp.(n) and last = t.frames.(n) in
  t.frames.(n) <- Bytes.empty;
  if n > 0 then sift_down t n 0 at st last;
  top

(* Does a fault of probability [p] strike?  A fault-free link draws
   nothing. *)
let roll t p = p > 0.0 && Rng.float t.rng < p

let send t b =
  Stats.incr t.stats "frames_sent";
  Stats.add t.stats "bytes_sent" (Bytes.length b);
  if t.partitioned then Stats.incr t.stats "frames_dropped_partition"
  else begin
    let f = t.cfg.faults in
    if roll t f.drop then Stats.incr t.stats "frames_dropped"
    else begin
      let bytes = Bytes.length b in
      let now = Sched.now () in
      let cost = Resource.transfer t.channel ~now ~bytes ~latency:t.cfg.latency in
      Trace.link_transfer ~link:t.label ~bytes ~cycles:cost;
      let at = now + cost in
      let at =
        if roll t f.delay then begin
          Stats.incr t.stats "frames_delayed";
          at + f.delay_cycles
        end
        else at
      in
      (* A reordered frame is simply held back long enough for traffic sent
         after it to overtake it. *)
      let at =
        if roll t f.reorder then begin
          Stats.incr t.stats "frames_reordered";
          at + (3 * t.cfg.latency)
        end
        else at
      in
      let payload =
        if roll t f.corrupt then begin
          Stats.incr t.stats "frames_corrupted";
          let c = Bytes.copy b in
          let i = Rng.int t.rng (Bytes.length c) in
          Bytes.set c i
            (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl Rng.int t.rng 8)));
          c
        end
        else b
      in
      insert t at payload;
      if roll t f.duplicate then begin
        Stats.incr t.stats "frames_duplicated";
        insert t (at + t.cfg.latency) payload
      end
    end
  end

let recv t =
  if t.size > 0 && t.deliver_at.(0) <= Sched.now () then begin
    Stats.incr t.stats "frames_delivered";
    pop t
  end
  else Bytes.empty

let set_partitioned t p = t.partitioned <- p

let partitioned t = t.partitioned

let in_flight t = t.size

let stats t = t.stats
