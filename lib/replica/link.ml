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

type frame = { deliver_at : int; stamp : int; payload : bytes }

let no_frame = { deliver_at = 0; stamp = 0; payload = Bytes.empty }

type t = {
  label : string;
  cfg : config;
  channel : Resource.t;
  rng : Rng.t;
  (* In-flight frames: a binary min-heap on (deliver_at, stamp) in
     [heap.(0 .. size - 1)]; slots past [size] hold [no_frame], so a
     delivered frame is not retained.  Stamps count sends and are unique,
     so the order is total: same-cycle frames leave in send order and
     delivery is deterministic, faults included. *)
  mutable heap : frame array;
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
    heap = Array.make 16 no_frame;
    size = 0;
    next_stamp = 0;
    partitioned = false;
    stats = Stats.create ();
  }

let before a b = a.deliver_at < b.deliver_at || (a.deliver_at = b.deliver_at && a.stamp < b.stamp)

let rec sift_up h i f =
  let p = (i - 1) / 2 in
  if i > 0 && before f h.(p) then begin
    h.(i) <- h.(p);
    sift_up h p f
  end
  else h.(i) <- f

let rec sift_down h n i f =
  let l = (2 * i) + 1 in
  if l >= n then h.(i) <- f
  else begin
    let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
    if before h.(c) f then begin
      h.(i) <- h.(c);
      sift_down h n c f
    end
    else h.(i) <- f
  end

let insert t deliver_at payload =
  t.next_stamp <- t.next_stamp + 1;
  if t.size = Array.length t.heap then begin
    let h = Array.make (2 * t.size) no_frame in
    Array.blit t.heap 0 h 0 t.size;
    t.heap <- h
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) { deliver_at; stamp = t.next_stamp; payload }

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- no_frame;
  if t.size > 0 then sift_down t.heap t.size 0 last;
  top

let send t b =
  Stats.incr t.stats "frames_sent";
  Stats.add t.stats "bytes_sent" (Bytes.length b);
  if t.partitioned then Stats.incr t.stats "frames_dropped_partition"
  else begin
    let f = t.cfg.faults in
    let roll p = p > 0.0 && Rng.float t.rng < p in
    if roll f.drop then Stats.incr t.stats "frames_dropped"
    else begin
      let bytes = Bytes.length b in
      let now = Sched.now () in
      let cost = Resource.transfer t.channel ~now ~bytes ~latency:t.cfg.latency in
      Trace.link_transfer ~link:t.label ~bytes ~cycles:cost;
      let at = now + cost in
      let at =
        if roll f.delay then begin
          Stats.incr t.stats "frames_delayed";
          at + f.delay_cycles
        end
        else at
      in
      (* A reordered frame is simply held back long enough for traffic sent
         after it to overtake it. *)
      let at =
        if roll f.reorder then begin
          Stats.incr t.stats "frames_reordered";
          at + (3 * t.cfg.latency)
        end
        else at
      in
      let payload =
        if roll f.corrupt then begin
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
      if roll f.duplicate then begin
        Stats.incr t.stats "frames_duplicated";
        insert t (at + t.cfg.latency) payload
      end
    end
  end

let recv t =
  if t.size > 0 && t.heap.(0).deliver_at <= Sched.now () then begin
    Stats.incr t.stats "frames_delivered";
    Some (pop t).payload
  end
  else None

let set_partitioned t p = t.partitioned <- p

let partitioned t = t.partitioned

let in_flight t = t.size

let stats t = t.stats
