module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Wire = Dudetm_log.Wire
module Config = Dudetm_core.Config
module Dudetm = Dudetm_core.Dudetm
module Trace = Dudetm_trace.Trace

(* Max batches retransmitted to one follower per round. *)
let window = 8

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  module Engine = Dudetm.Make (Tm)

  exception Replica_lag of string

  let () =
    Printexc.register_printer (function
      | Replica_lag msg -> Some (Printf.sprintf "Replica_lag %S" msg)
      | _ -> None)

  type ack = Quorum | Degraded_quorum of string

  type health = Healthy | Degraded of string

  type config = {
    nreplicas : int;
    link : Link.config;
    max_retained : int;
  }

  let default_config ?(nreplicas = 3) () =
    {
      nreplicas;
      link = Link.default_config;
      (* A partitioned follower must not pin unbounded primary DRAM: past
         this many retained batches the laggard is cut off instead. *)
      max_retained = 4096;
    }

  (* One follower plus the primary's view of it. *)
  type rep = {
    idx : int;
    eng : Engine.t;
    down : Link.t;  (* primary -> replica: Batch / Watermark frames *)
    up : Link.t;  (* replica -> primary: cumulative Ack frames *)
    known_acked : int ref;  (* replica side: replay-gate watermark *)
    wake_acked : Sched.cond;  (* replica side: [known_acked] rose *)
    pendingq : (int, bytes) Hashtbl.t;  (* replica side: out-of-order batch frames, by lo *)
    mutable deferred : bytes;  (* the in-line batch frame awaiting ring space, or empty *)
    mutable ingested_seq : int;  (* replica side: last ring seq ingested *)
    mutable last_acked : int;  (* replica side: durable ID last ack'd *)
    mutable reack : bool;  (* replica side: saw a dup; re-send the ack *)
    (* Primary-side view, fed by this replica's cumulative acks: *)
    mutable acked_hi : int;  (* its durable ID (the quorum vector entry) *)
    mutable retries : int;  (* consecutive silent retransmit rounds *)
    mutable next_retry : int;  (* timer deadline; 0 = unarmed *)
    mutable cut_off : bool;  (* lagged past max_retained; needs a resync *)
  }

  type t = {
    cfg : Config.t;
    rcfg : config;
    prim : Engine.t;
    reps : rep array;
    (* The batch frames shipped, oldest first, retained in DRAM until
       acked by every replica: [retained.(first .. first + count - 1)],
       indices modulo the array's length; a freed slot holds the empty
       frame.  [shipped_hi] is the highest [hi] ever shipped: the newest
       retained frame's, while any is retained. *)
    mutable retained : bytes array;
    mutable first : int;
    mutable count : int;
    mutable shipped_hi : int;
    mutable acked_watermark : int;  (* quorum watermark, monotone *)
    wake_watermark : Sched.cond;  (* [acked_watermark] rose *)
    mutable last_broadcast : int;
    mutable last_broadcast_at : int;
    mutable degraded : string option;
    mutable lag_alarm : string option;  (* sticky: set when the cap trips *)
    retry_rng : Rng.t;
    stats : Stats.t;
    mutable stopped : bool;
  }

  let quorum_needed ~nreplicas = (nreplicas + 2) / 2

  let quorum t = quorum_needed ~nreplicas:(Array.length t.reps)

  (* Replica acks needed beyond the primary's own seal. *)
  let acks_needed t = quorum t - 1

  let create ?rcfg cfg =
    let rcfg = match rcfg with Some r -> r | None -> default_config () in
    if rcfg.nreplicas < 1 then invalid_arg "Replica.create: nreplicas < 1";
    (match cfg.Config.persist with
    | Config.Combined _ -> ()
    | Config.Per_thread _ ->
      invalid_arg "Replica.create: the wire unit is the combined group-commit record");
    let prim = Engine.create ~nvm_label:"primary" cfg in
    let reps =
      Array.init rcfg.nreplicas (fun i ->
          let label = Printf.sprintf "replica%d" i in
          {
            idx = i;
            eng = Engine.create ~nvm_label:label cfg;
            down =
              Link.create ~label:(Printf.sprintf "ship:%s" label)
                { rcfg.link with Link.seed = rcfg.link.Link.seed + (2 * i) };
            up =
              Link.create ~label:(Printf.sprintf "ack:%s" label)
                { rcfg.link with Link.seed = rcfg.link.Link.seed + (2 * i) + 1 };
            known_acked = ref 0;
            wake_acked = Sched.cond ();
            pendingq = Hashtbl.create 64;
            deferred = Bytes.empty;
            ingested_seq = -1;
            last_acked = 0;
            reack = false;
            acked_hi = 0;
            retries = 0;
            next_retry = 0;
            cut_off = false;
          })
    in
    let t =
      {
        cfg;
        rcfg;
        prim;
        reps;
        retained = Array.make 64 Bytes.empty;
        first = 0;
        count = 0;
        shipped_hi = 0;
        acked_watermark = 0;
        wake_watermark = Sched.cond ();
        last_broadcast = 0;
        last_broadcast_at = 0;
        degraded = None;
        lag_alarm = None;
        retry_rng = Rng.create (((cfg.Config.seed * 37) + 0x5e91) land max_int);
        stats = Stats.create ();
        stopped = false;
      }
    in
    (* Durable-only snapshot readers on the primary pin at the *quorum*
       watermark, not the primary-local durable ID: a value is readable in
       durable mode only once it would survive a failover (the promotion
       truncates to the quorum prefix).  The thunk is a pure field read,
       as the snapshot pin wait requires, and [recompute] signals the cond
       each time the watermark rises. *)
    Engine.set_ro_watermark prim ~on:[ t.wake_watermark ] (Some (fun () -> t.acked_watermark));
    t

  (* ------------------------------------------------------------------ *)
  (* Quorum watermark                                                    *)
  (* ------------------------------------------------------------------ *)

  (* The [k]-th largest [acked_hi] over [reps] (1 <= k <= length), from
     index [i] on: the first value with fewer than [k] entries above it
     and at least [k] at or above it.  Quadratic in the replica count and
     allocation-free, where copying the vector and sorting it was neither. *)
  let rec kth_largest_acked reps k i =
    let v = reps.(i).acked_hi in
    let above = ref 0 and at_least = ref 0 in
    for j = 0 to Array.length reps - 1 do
      let w = reps.(j).acked_hi in
      if w > v then incr above;
      if w >= v then incr at_least
    done;
    if !above < k && !at_least >= k then v else kth_largest_acked reps k (i + 1)

  (* The retained frame [i] places from the oldest. *)
  let nth t i = t.retained.((t.first + i) mod Array.length t.retained)

  let retain t f =
    let cap = Array.length t.retained in
    if t.count = cap then begin
      let g = Array.make (2 * cap) Bytes.empty in
      for i = 0 to t.count - 1 do
        g.(i) <- nth t i
      done;
      t.retained <- g;
      t.first <- 0
    end;
    t.retained.((t.first + t.count) mod Array.length t.retained) <- f;
    t.count <- t.count + 1

  let drop_oldest t =
    let f = t.retained.(t.first) in
    t.retained.(t.first) <- Bytes.empty;
    t.first <- (t.first + 1) mod Array.length t.retained;
    t.count <- t.count - 1;
    f

  (* Retire retained batches at or below [min_hi] (oldest first). *)
  let rec prune t min_hi =
    if t.count > 0 && Wire.hi (nth t 0) <= min_hi then begin
      ignore (drop_oldest t);
      prune t min_hi
    end

  (* acked = min(primary durable, (q-1)-th largest replica durable): the
     transaction is sealed on the primary plus at least q-1 replicas.  The
     Skip_quorum_gate mutant (checker self-test) acknowledges at the
     primary-local seal — exactly the bug the campaign must catch. *)
  let recompute t =
    let d = Engine.durable_id t.prim in
    let wm =
      if Dudetm_sim.Inject.armed Skip_quorum_gate then d
      else begin
        let need = acks_needed t in
        if need = 0 then d else min d (kth_largest_acked t.reps need 0)
      end
    in
    if wm > t.acked_watermark then begin
      t.acked_watermark <- wm;
      Sched.signal t.wake_watermark;
      Trace.instant ~cat:"replica" "ack" wm
    end;
    if t.degraded <> None && t.acked_watermark >= d then t.degraded <- None;
    (* Retire batches every replica still being served has acknowledged;
       a cut-off replica no longer pins retention (that is the point of
       cutting it off). *)
    let min_hi =
      Array.fold_left
        (fun acc r -> if r.cut_off then acc else min acc r.acked_hi)
        max_int t.reps
    in
    prune t min_hi

  let acked t = t.acked_watermark

  (* Read-only snapshot on the primary.  With [~durable:true] the epoch
     pins at the quorum watermark installed above, so every value read is
     failover-safe; beware that under a full partition the watermark
     stalls and a pinned extension can wait until the links heal (writers
     hit the bounded [ack_timeout] instead — snapshot readers running
     alongside a healthy ack daemon never deadlock the scheduler, they
     just wait). *)
  let atomically_ro ?durable t ~thread f =
    Engine.atomically_ro ?durable t.prim ~thread f

  (* ------------------------------------------------------------------ *)
  (* Primary side: ship, ack intake, retransmit                          *)
  (* ------------------------------------------------------------------ *)

  (* A retained frame again, stamped with today's watermark. *)
  let send_batch t r f =
    Link.send r.down
      (Wire.encode_batch ~seq:(Wire.seq f) ~lo:(Wire.lo f) ~hi:(Wire.hi f)
         ~acked:t.acked_watermark f ~pos:Wire.payload_pos ~len:(Wire.payload_len f))

  (* Bounded retention: the retransmit queue may not outgrow
     [max_retained].  When it would, the oldest batches are dropped and
     any replica that still needed them is cut off — retransmission can
     no longer heal it (a real deployment would resync it from a
     checkpoint), and the condition is reported as a sticky
     [Replica_lag]-shaped diagnostic through {!health} instead of
     pinning unbounded primary DRAM. *)
  let enforce_retention t =
    let cap = t.rcfg.max_retained in
    if cap > 0 then
      while t.count > cap do
        let f = drop_oldest t in
        Stats.incr t.stats "retention_drops";
        Array.iter
          (fun r ->
            if (not r.cut_off) && r.acked_hi < Wire.hi f then begin
              r.cut_off <- true;
              Stats.incr t.stats "replicas_cut_off";
              Trace.instant ~cat:"replica" "cut_off" r.idx;
              t.lag_alarm <-
                Some
                  (Printf.sprintf
                     "Replica_lag: replica %d cut off at acked=%d — batch [%d,%d] \
                      dropped by the %d-batch retransmit retention; resync required"
                     r.idx r.acked_hi (Wire.lo f) (Wire.hi f) cap)
            end)
          t.reps
      done

  let ship t ~seq ~lo ~hi b ~pos ~len =
    recompute t;
    (* One frame for every down link: [Link.send] never mutates a frame,
       and the frame is what the primary retains for retransmission. *)
    let f = Wire.encode_batch ~seq ~lo ~hi ~acked:t.acked_watermark b ~pos ~len in
    retain t f;
    t.shipped_hi <- hi;
    enforce_retention t;
    Stats.incr t.stats "batches_shipped";
    (* A cut-off replica would only hoard the new frames out of order. *)
    for i = 0 to Array.length t.reps - 1 do
      let r = t.reps.(i) in
      if not r.cut_off then Link.send r.down f
    done

  let on_ship t ~seq ~lo ~hi b ~pos ~len =
    if Trace.enabled () then
      Trace.span ~cat:"replica" "ship" (fun () -> ship t ~seq ~lo ~hi b ~pos ~len)
    else ship t ~seq ~lo ~hi b ~pos ~len

  (* The retransmit timer must outlast a healthy round trip over the link
     in use (two latencies plus both ends' poll steps), then back off like
     the engine's daemon supervisor: doubling per silent round, capped. *)
  let backoff t k =
    let lat = t.rcfg.link.Link.latency in
    let ceiling = min (64 * lat) ((8 * lat) lsl min k 16) in
    let half = max 1 ((ceiling + 1) / 2) in
    half + Rng.int t.retry_rng half

  (* Resend up to [window] of the lowest batches [r] has not acked. *)
  let resend t r =
    let sent = ref 0 and i = ref 0 in
    while !i < t.count && !sent < window do
      let f = nth t !i in
      if Wire.hi f > r.acked_hi then begin
        send_batch t r f;
        incr sent
      end;
      incr i
    done;
    !sent

  (* Resend the lowest unacked batches to every replica whose timer has
     expired, with capped exponential backoff per silent round.  Retained
     frames are in shipping order, so a replica is behind exactly when
     the newest one's [hi] is above its ack. *)
  let retransmit t =
    let now = Sched.now () in
    for i = 0 to Array.length t.reps - 1 do
      let r = t.reps.(i) in
      let behind = (not r.cut_off) && t.count > 0 && t.shipped_hi > r.acked_hi in
      if not behind then begin
        r.retries <- 0;
        r.next_retry <- 0
      end
      else if r.next_retry = 0 then
        (* Arm: give the in-flight copy a full round trip first. *)
        r.next_retry <- now + backoff t 0
      else if now >= r.next_retry then begin
        let sent = resend t r in
        Stats.add t.stats "retransmits" sent;
        Stats.incr t.stats "retransmit_rounds";
        r.retries <- r.retries + 1;
        let b = backoff t r.retries in
        Stats.add t.stats "backoff_cycles" b;
        r.next_retry <- now + b
      end
    done

  (* Watermark-only broadcast: opens follower replay gates when no data
     frame is pending (the tail of a run), re-sent periodically so a lost
     frame cannot wedge a gate shut. *)
  let broadcast_watermark t =
    let now = Sched.now () in
    let refresh = 8 * t.rcfg.link.Link.latency in
    if
      t.acked_watermark > t.last_broadcast
      || (t.acked_watermark > 0 && now - t.last_broadcast_at >= refresh)
    then begin
      t.last_broadcast <- t.acked_watermark;
      t.last_broadcast_at <- now;
      Stats.incr t.stats "watermark_broadcasts";
      let f = Wire.encode_watermark ~acked:t.acked_watermark in
      for i = 0 to Array.length t.reps - 1 do
        Link.send t.reps.(i).down f
      done
    end

  (* Take in every ack [r] has delivered, each read in place. *)
  let rec drain_acks t r =
    let b = Link.recv r.up in
    if Bytes.length b > 0 then begin
      (match Wire.check b with
      | Wire.Ack_frame ->
        Stats.incr t.stats "acks_received";
        let durable = Wire.durable b in
        if durable > r.acked_hi then begin
          r.acked_hi <- durable;
          r.retries <- 0;
          r.next_retry <- 0
        end
      | Wire.Batch_frame | Wire.Watermark_frame -> ()
      | Wire.Invalid -> Stats.incr t.stats "crc_rejected");
      drain_acks t r
    end

  let ack_loop t =
    let step = max 1 (t.rcfg.link.Link.latency / 2) in
    let rec loop () =
      if not t.stopped then begin
        for i = 0 to Array.length t.reps - 1 do
          drain_acks t t.reps.(i)
        done;
        recompute t;
        retransmit t;
        broadcast_watermark t;
        Sched.advance step;
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Replica side: ingest in order, ack cumulatively                     *)
  (* ------------------------------------------------------------------ *)

  (* Ingest batch frame [f]'s payload where it lies in the frame. *)
  let apply r f = Engine.ingest_record r.eng f ~pos:Wire.payload_pos ~len:(Wire.payload_len f)

  (* Apply every in-line batch the ring can take right now. *)
  let rec pump t r =
    let d = Engine.durable_id r.eng in
    let f = r.deferred in
    if Bytes.length f > 0 then begin
      if Wire.hi f <= d then begin
        (* A duplicate slipped in line; drop it. *)
        r.deferred <- Bytes.empty;
        pump t r
      end
      else if
        if Trace.enabled () then Trace.span ~cat:"replica" "apply" (fun () -> apply r f)
        else apply r f
      then begin
        r.deferred <- Bytes.empty;
        if Wire.seq f > r.ingested_seq then r.ingested_seq <- Wire.seq f;
        Stats.incr t.stats "batches_applied";
        pump t r
      end
      (* else: ring full — keep it deferred, retry after Reproduce
         checkpoints and recycles. *)
    end
    else
      match Hashtbl.find r.pendingq (d + 1) with
      | f ->
        Hashtbl.remove r.pendingq (d + 1);
        r.deferred <- f;
        pump t r
      | exception Not_found -> ()

  let learn_acked r acked =
    if acked > !(r.known_acked) then begin
      r.known_acked := acked;
      Sched.signal r.wake_acked
    end

  (* One frame off the down link, read in place: a batch waits in line
     (or, out of order, in [pendingq]) as the frame itself. *)
  let on_frame t r b =
    match Wire.check b with
    | Wire.Invalid -> Stats.incr t.stats "crc_rejected"
    | Wire.Watermark_frame -> learn_acked r (Wire.acked b)
    | Wire.Ack_frame -> ()
    | Wire.Batch_frame ->
      learn_acked r (Wire.acked b);
      let d = Engine.durable_id r.eng in
      let lo = Wire.lo b in
      if Wire.hi b <= d then begin
        (* Dedup by batch sequence: already sealed here; re-ack so a lost
           ack cannot retransmit forever. *)
        Stats.incr t.stats "dup_frames";
        r.reack <- true
      end
      else if lo > d + 1 then begin
        Stats.incr t.stats "ooo_frames";
        Hashtbl.replace r.pendingq lo b
      end
      else if Bytes.length r.deferred = 0 then r.deferred <- b
      else Hashtbl.replace r.pendingq lo b

  let send_ack r =
    let d = Engine.durable_id r.eng in
    if d <> r.last_acked || r.reack then begin
      r.last_acked <- d;
      r.reack <- false;
      Link.send r.up (Wire.encode_ack ~seq:r.ingested_seq ~durable:d)
    end

  let rec drain_frames t r =
    let b = Link.recv r.down in
    if Bytes.length b > 0 then begin
      on_frame t r b;
      drain_frames t r
    end

  let net_loop t r =
    let step = max 1 (t.rcfg.link.Link.latency / 2) in
    let rec loop () =
      if not t.stopped then begin
        drain_frames t r;
        pump t r;
        send_ack r;
        Sched.advance step;
        loop ()
      end
    in
    loop ()

  (* ------------------------------------------------------------------ *)
  (* Lifecycle                                                           *)
  (* ------------------------------------------------------------------ *)

  let start t =
    Engine.start t.prim;
    Engine.set_ship_hook t.prim (Some (on_ship t));
    Array.iter
      (fun r ->
        let cell = r.known_acked in
        Engine.set_replay_gate r.eng ~on:[ r.wake_acked ]
          (Some (fun it -> Engine.item_hi it <= !cell));
        Engine.start_follower r.eng;
        ignore
          (Sched.spawn ~daemon:true
             (Printf.sprintf "replica-net-%d" r.idx)
             (fun () -> try net_loop t r with Sched.Killed -> ())))
      t.reps;
    ignore
      (Sched.spawn ~daemon:true "replica-ack" (fun () ->
           try ack_loop t with Sched.Killed -> ()))

  (* ------------------------------------------------------------------ *)
  (* Durability waits (bounded; poll — never a wait_until deadlock)      *)
  (* ------------------------------------------------------------------ *)

  let diagnostic t =
    let d = Engine.durable_id t.prim in
    let per =
      Array.to_list
        (Array.map
           (fun r ->
             Printf.sprintf "r%d{acked=%d lag=%d part=%b retries=%d%s}" r.idx r.acked_hi
               (d - r.acked_hi)
               (Link.partitioned r.down || Link.partitioned r.up)
               r.retries
               (if r.cut_off then " CUT" else ""))
           t.reps)
    in
    Printf.sprintf
      "quorum %d/%d unreachable within %d cycles: durable=%d acked=%d outstanding_batches=%d \
       retransmits=%d retransmit_rounds=%d backoff_cycles=%d replicas=[%s]"
      (quorum t)
      (Array.length t.reps + 1)
      t.cfg.Config.ack_timeout d t.acked_watermark t.count
      (Stats.get t.stats "retransmits")
      (Stats.get t.stats "retransmit_rounds")
      (Stats.get t.stats "backoff_cycles")
      (String.concat " " per)

  let degrade t =
    Stats.incr t.stats "degraded_acks";
    let msg = diagnostic t in
    t.degraded <- Some msg;
    Trace.instant ~cat:"replica" "degraded" t.acked_watermark;
    Degraded_quorum msg

  let poll_step t = max 64 (t.rcfg.link.Link.latency / 2)

  (* Poll the watermark with a bounded budget.  [Sched.wait_until] is off
     the table: "watermark reached OR timeout" is a time-based predicate,
     and when every replica is partitioned nothing else would advance this
     fiber's clock — the classic wait_until deadlock.  Polling by
     [Sched.advance] always makes progress and lets the ack/retransmit
     daemons run underneath. *)
  let poll_acked t tid =
    ignore
      (Sched.poll ~budget:t.cfg.Config.ack_timeout ~step:(poll_step t) (fun _ ->
           t.acked_watermark >= tid));
    t.acked_watermark >= tid

  let wait_acked t tid =
    if t.acked_watermark >= tid then Quorum
    else begin
      (* The primary's own seal first — identical to the PR 6 wait (and
         bit-for-bit the whole story when K = 1, where no replica ack is
         needed): registering as a durability waiter makes the group-commit
         daemon flush an open batch immediately. *)
      Engine.wait_durable t.prim tid;
      recompute t;
      if t.acked_watermark >= tid then Quorum
      else if poll_acked t tid then Quorum
      else degrade t
    end

  let drain ?(require_quorum = false) t =
    Engine.drain t.prim;
    recompute t;
    let target = Engine.durable_id t.prim in
    if t.acked_watermark >= target || poll_acked t target then Quorum
    else if require_quorum then raise (Replica_lag (diagnostic t))
    else degrade t

  let sync_followers t =
    let target = t.acked_watermark in
    let reachable r = not (Link.partitioned r.down || Link.partitioned r.up) in
    let caught_up r =
      (not (reachable r))
      || (Engine.durable_id r.eng >= target && Engine.applied_id r.eng >= target)
    in
    ignore
      (Sched.poll ~budget:t.cfg.Config.ack_timeout ~step:(poll_step t) (fun _ ->
           Array.for_all caught_up t.reps))

  let stop t =
    ignore (drain t);
    Engine.stop t.prim;
    sync_followers t;
    Array.iter (fun r -> Engine.stop_follower r.eng) t.reps;
    t.stopped <- true

  (* A tripped retention cap is sticky: the cut-off replica stays broken
     (it needs a resync) even after quorum acks catch back up. *)
  let health t =
    match (t.degraded, t.lag_alarm) with
    | Some d, _ -> Degraded d
    | None, Some d -> Degraded d
    | None, None -> Healthy

  let cut_off t = Array.map (fun r -> r.cut_off) t.reps

  let retained t = t.count

  let set_partitioned t i p =
    let r = t.reps.(i) in
    Link.set_partitioned r.down p;
    Link.set_partitioned r.up p

  (* ------------------------------------------------------------------ *)
  (* Failover                                                            *)
  (* ------------------------------------------------------------------ *)

  type promotion = {
    promoted : int;
    candidates : int array;
    quorum_prefix : int;
    truncated_txs : int;
    report : Dudetm.recovery_report;
  }

  let promote t =
    Trace.span ~cat:"replica" "promote" @@ fun () ->
    (* Power-cut every replica device: promotion recovers from each
       replica's {e local durable prefix}, nothing volatile. *)
    Array.iter (fun r -> Nvm.crash (Engine.nvm r.eng)) t.reps;
    let prepared =
      Array.map (fun r -> Engine.attach_prepare (Engine.config r.eng) (Engine.nvm r.eng)) t.reps
    in
    let candidates = Array.map Engine.prepared_durable prepared in
    let need = acks_needed t in
    let quorum_prefix =
      if need = 0 then Array.fold_left max 0 candidates
      else begin
        let sorted = Array.copy candidates in
        Array.sort (fun a b -> compare b a) sorted;
        sorted.(need - 1)
      end
    in
    (* Promote the longest prefix, truncated to the quorum prefix: a
       replica that ran ahead of the quorum only loses a tail no client
       was ever promised. *)
    let winner = ref 0 in
    Array.iteri (fun i c -> if c > candidates.(!winner) then winner := i) candidates;
    let eng, report =
      Engine.attach_commit ~durable_cut:quorum_prefix prepared.(!winner)
    in
    ( eng,
      {
        promoted = !winner;
        candidates;
        quorum_prefix;
        truncated_txs = candidates.(!winner) - report.Dudetm.durable;
        report;
      } )

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                       *)
  (* ------------------------------------------------------------------ *)

  let primary t = t.prim

  let replica t i = t.reps.(i).eng

  let nreplicas t = Array.length t.reps

  let link_stats t = Array.map (fun r -> (Link.stats r.down, Link.stats r.up)) t.reps

  let stats t = t.stats
end
