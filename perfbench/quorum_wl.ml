(* The quorum-k3 workload: the Replica API with a primary and 3 followers
   on a clean link of fixed latency and bandwidth, driven by a dispatch
   pool the benchmark owns, one fiber per engine thread.  Four fifths of
   the requests write a payload unique per request and are acked at the
   quorum watermark; a fifth read one key pinned at that watermark.  This
   is the only traffic through ship/ingest/ack, [Link] and [Wire].  After
   the primary dies once every reply is in, the promoted follower must hold
   each key's highest-tid acked payload. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Trace = Dudetm_trace.Trace
module Config = Dudetm_core.Config
module Rep = Dudetm_replica.Replica.Make (Tmwrap.Tm)
module E = Rep.Engine

let threads = 4

let keys = 4096

let sessions = 16

let slots = 16

let slot k = 64 + (8 * k)

let preload_value k = Int64.of_int (-(k + 1))

type op = Put of { key : int; payload : int64 } | Get of { key : int }

type job = { op : op; mutable finished : bool; mutable tid : int; mutable value : int64 }

let config = Dudetm_serve.Serve_load.engine_cfg ~workers:threads ()

let gen rng ~session ~idx =
  let key = Rng.int rng keys in
  if Rng.int rng 100 < 20 then Get { key }
  else Put { key; payload = Int64.of_int (1 + (session * 1_000_000) + idx) }

let run ~seed ~mtps ~reqs ~traced ~cut =
  let h0 = Wl.cpu () in
  let c = Rep.create ~rcfg:(Rep.default_config ~nreplicas:3 ()) config in
  let prim = Rep.primary c in
  let devs = E.nvm prim :: List.init (Rep.nreplicas c) (fun i -> E.nvm (Rep.replica c i)) in
  let queue = Queue.create () in
  let quorum_wait = Samples.create () in
  let last = Array.init keys (fun k -> (0, preload_value k)) in
  let written = Hashtbl.create 4096 in
  let bad_reads = ref 0 and degraded = ref 0 in
  let worker w () =
    while true do
      Sched.wait_until ~label:"perfbench pool" (fun () -> not (Queue.is_empty queue));
      let j = Queue.pop queue in
      (match j.op with
      | Put { key; payload } -> (
        match
          Spans.wrap "replica.atomically" (fun () ->
              E.atomically prim ~thread:w (fun tx -> E.write tx (slot key) payload))
        with
        | Some ((), tid) -> j.tid <- tid
        | None -> ())
      | Get { key } -> (
        match
          Spans.wrap "replica.atomically_ro" (fun () ->
              Rep.atomically_ro ~durable:true c ~thread:w (fun tx -> E.read tx (slot key)))
        with
        | Some (v, _) -> j.value <- v
        | None -> ()));
      j.finished <- true
    done
  in
  let issue ~session:_ op =
    (match op with Put { key; payload } -> Hashtbl.replace written payload key | Get _ -> ());
    let j = { op; finished = false; tid = 0; value = 0L } in
    Queue.push j queue;
    Sched.wait_until ~label:"perfbench reply" (fun () -> j.finished);
    match op with
    | Put { key; payload } when j.tid > 0 ->
      let t0 = Sched.now () in
      (match Spans.wrap "replica.wait_acked" (fun () -> Rep.wait_acked c j.tid) with
      | Rep.Quorum -> ()
      | Rep.Degraded_quorum _ -> incr degraded);
      Samples.add quorum_wait (Sched.now () - t0);
      if j.tid > fst last.(key) then last.(key) <- (j.tid, payload);
      Leg.Acked_write
    | Put _ -> Leg.Aborted
    | Get { key } ->
      if j.value <> preload_value key && Hashtbl.find_opt written j.value <> Some key then
        incr bad_reads;
      Leg.Replied_read
  in
  let out = ref None in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         for w = 0 to threads - 1 do
           ignore (Sched.spawn ~daemon:true (Printf.sprintf "pool-%d" w) (worker w))
         done;
         for b = 0 to (keys / 64) - 1 do
           match
             E.atomically prim ~thread:0 (fun tx ->
                 for k = 64 * b to (64 * b) + 63 do
                   E.write tx (slot k) (preload_value k)
                 done)
           with
           | Some ((), tid) -> ignore (Rep.wait_acked c tid)
           | None -> failwith "preload aborted"
         done;
         let setup_s = Wl.cpu () -. h0 in
         let leg, leg_s, alloc =
           Wl.measured ~traced
             ~stats:
               (E.stats prim :: Tmwrap.Tm.stats (E.tm prim) :: Rep.stats c
               :: List.concat_map (fun (d, u) -> [ d; u ]) (Array.to_list (Rep.link_stats c)))
             devs (fun () ->
               Leg.run ~seed ~sessions ~slots ~reqs ~mtps ~gen ~issue)
         in
         out := Some (setup_s, leg, leg_s, alloc, E.durable_id prim - E.applied_id prim)));
  Trace.disable ();
  let setup_s, leg, leg_s, alloc, lag_txs = Option.get !out in
  let nvm_bytes = Wl.persisted devs in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if !bad_reads > 0 then fail "%d reads returned a value no write produced" !bad_reads;
  if !degraded > 0 then fail "%d writes acked in degraded mode on a clean link" !degraded;
  let layers =
    if not traced then []
    else
      let us p s = Wl.us (Samples.percentile s p) in
      let st = Rep.stats c in
      let writes = max 1 (Samples.count leg.Leg.writes) in
      let link_bytes =
        Array.fold_left
          (fun acc (down, up) -> acc + Stats.get down "bytes_sent" + Stats.get up "bytes_sent")
          0 (Rep.link_stats c)
      in
      let engines =
        [ { Wl.eng = E.stats prim; tm = Tmwrap.Tm.stats (E.tm prim); shadow = E.shadow_stats prim } ]
      in
      [
        ("serve.gen_lag_p99_us", us 99.0 leg.Leg.lag);
        ("replica.quorum_wait_p50_us", us 50.0 quorum_wait);
        ("replica.quorum_wait_p99_us", us 99.0 quorum_wait);
        ("replica.txs_per_batch", Wl.ratio (Stats.get (E.stats prim) "txs") (Stats.get st "batches_shipped"));
        ("replica.link_bytes_per_write", Wl.ratio link_bytes writes);
        ("replica.retransmits", float_of_int (Stats.get st "retransmits"));
        ("engine.reproduce_lag_txs", float_of_int lag_txs);
      ]
      @ Wl.engine_layers ~leg ~engines ~devs ~nvm_bytes
      @ Wl.span_layers ~leg [ "replica" ]
  in
  let recovery, extra =
    if not cut then (0, [])
    else begin
      let res = ref None in
      let cycles = Sched.run (fun () -> res := Some (Rep.promote c)) in
      let eng, promo = Option.get !res in
      let lost = ref 0 in
      Array.iteri (fun k (_, payload) -> if E.heap_read_u64 eng (slot k) <> payload then incr lost) last;
      if !lost > 0 then fail "%d keys lost their last acked write in the failover" !lost;
      ( cycles,
        [
          ("replica.truncated_txs", float_of_int promo.Rep.truncated_txs);
          ("engine.recovery_replayed_txs", float_of_int promo.Rep.report.Dudetm_core.Dudetm.replayed_txs);
        ] )
    end
  in
  Wl.finish ~traced ~leg ~user_bytes:(8 * Samples.count leg.Leg.writes) ~nvm_bytes ~recovery
    ~failures:(List.rev !failures) ~setup_s ~leg_s ~alloc ~layers:(layers @ extra)
