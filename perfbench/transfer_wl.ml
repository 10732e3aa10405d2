(* The transfer-4s workload: the Shard API over 4 shards, driven by a
   dispatch pool the benchmark owns, one fiber per engine thread of every
   shard.  A fifth of the requests move money between accounts on two
   shards (the only traffic through the cross lock, quiesce, gtid seal,
   fragment replay gate and global-frontier ack), three fifths within one
   shard, and a fifth read one balance at the durable vector watermark.
   After the power cut every balance must equal its value when the last
   reply came in, and the balances must still sum to the preload total. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Trace = Dudetm_trace.Trace
module Sh = Dudetm_shard.Shard.Make (Tmwrap.Tm)
module E = Sh.Engine

let nshards = 4

let threads = 2

let accounts = 4096 (* per shard *)

let initial = 1_000_000L

let sessions = 8

let slots = 8

let slot a = 64 + (8 * a)

type op =
  | Transfer of { s1 : int; a1 : int; s2 : int; a2 : int; amount : int64 }
  | Balance of { s : int; a : int }

type job = {
  op : op;
  mutable finished : bool;
  mutable ack : Sh.ack option;
  mutable value : int64;
}

let config = Dudetm_serve.Serve_load.engine_cfg ~workers:threads ()

let gen rng ~session:_ ~idx:_ =
  let p = Rng.int rng 100 in
  let s1 = Rng.int rng nshards and a1 = Rng.int rng accounts in
  if p < 20 then Balance { s = s1; a = a1 }
  else begin
    let s2 = if p < 40 then (s1 + 1 + Rng.int rng (nshards - 1)) mod nshards else s1 in
    let a2 =
      if s2 = s1 then (a1 + 1 + Rng.int rng (accounts - 1)) mod accounts
      else Rng.int rng accounts
    in
    Transfer { s1; a1; s2; a2; amount = Int64.of_int (1 + Rng.int rng 10) }
  end

let preload sh =
  for s = 0 to nshards - 1 do
    for b = 0 to (accounts / 64) - 1 do
      match
        Sh.atomically sh ~thread:0 ~shards:[ s ] (fun tx ->
            for a = 64 * b to (64 * b) + 63 do
              Sh.write tx ~shard:s (slot a) initial
            done)
      with
      | Some ((), ack) -> Sh.wait_durable sh ack
      | None -> failwith "preload aborted"
    done
  done

let balances sh =
  Array.init nshards (fun s ->
      Array.init accounts (fun a -> E.heap_read_u64 (Sh.engine sh s) (slot a)))

let sum b = Array.fold_left (Array.fold_left Int64.add) 0L b

let engine_stats sh =
  List.concat
    (List.init nshards (fun s ->
         let e = Sh.engine sh s in
         [ E.stats e; Tmwrap.Tm.stats (E.tm e) ]))

let run ~seed ~mtps ~reqs ~traced ~cut =
  let h0 = Wl.cpu () in
  let sh = Sh.create ~nshards config in
  let devs = List.init nshards (Sh.nvm sh) in
  let queues = Array.init nshards (fun _ -> Queue.create ()) in
  let cross_commit = Samples.create () and single_commit = Samples.create () in
  let frontier_wait = Samples.create () and local_wait = Samples.create () in
  let cross = ref 0 and bad_reads = ref 0 in
  let total = Int64.mul initial (Int64.of_int (nshards * accounts)) in
  let worker s w () =
    while true do
      Sched.wait_until ~label:"perfbench pool" (fun () -> not (Queue.is_empty queues.(s)));
      let j = Queue.pop queues.(s) in
      (match j.op with
      | Transfer { s1; a1; s2; a2; amount } ->
        let shards = List.sort_uniq compare [ s1; s2 ] in
        let t0 = Sched.now () in
        (match
           Spans.wrap "shard.atomically" (fun () ->
               Sh.atomically sh ~thread:w ~shards (fun tx ->
                   let b1 = Sh.read tx ~shard:s1 (slot a1) in
                   Sh.write tx ~shard:s1 (slot a1) (Int64.sub b1 amount);
                   let b2 = Sh.read tx ~shard:s2 (slot a2) in
                   Sh.write tx ~shard:s2 (slot a2) (Int64.add b2 amount)))
         with
        | Some ((), ack) -> j.ack <- Some ack
        | None -> ());
        Samples.add (if s1 <> s2 then cross_commit else single_commit) (Sched.now () - t0)
      | Balance { s; a } -> (
        match
          Spans.wrap "shard.atomically_ro" (fun () ->
              Sh.atomically_ro ~durable:true sh ~thread:w ~shard:s (fun tx ->
                  Sh.read tx ~shard:s (slot a)))
        with
        | Some (v, _) -> j.value <- v
        | None -> ()));
      j.finished <- true
    done
  in
  let issue ~session:_ op =
    let j = { op; finished = false; ack = None; value = 0L } in
    let home = match op with Transfer { s1; _ } -> s1 | Balance { s; _ } -> s in
    Queue.push j queues.(home);
    Sched.wait_until ~label:"perfbench reply" (fun () -> j.finished);
    match (op, j.ack) with
    | Transfer { s1; s2; _ }, Some ack ->
      if s1 <> s2 then incr cross;
      let t0 = Sched.now () in
      Spans.wrap "shard.wait_durable" (fun () -> Sh.wait_durable sh ack);
      Samples.add
        (match ack with Sh.Ack_cross _ -> frontier_wait | _ -> local_wait)
        (Sched.now () - t0);
      Leg.Acked_write
    | Transfer _, None -> Leg.Aborted
    | Balance _, _ ->
      if j.value < 0L || j.value > total then incr bad_reads;
      Leg.Replied_read
  in
  let out = ref None in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         for s = 0 to nshards - 1 do
           for w = 0 to threads - 1 do
             ignore (Sched.spawn ~daemon:true (Printf.sprintf "pool-%d-%d" s w) (worker s w))
           done
         done;
         preload sh;
         let setup_s = Wl.cpu () -. h0 in
         let leg, leg_s, alloc =
           Wl.measured ~traced ~stats:(engine_stats sh) devs (fun () ->
               Leg.run ~seed ~sessions ~slots ~reqs ~mtps ~gen ~issue)
         in
         let lag =
           List.init nshards (fun s ->
               let e = Sh.engine sh s in
               E.durable_id e - E.applied_id e)
         in
         out := Some (setup_s, leg, leg_s, alloc, List.fold_left ( + ) 0 lag)));
  Trace.disable ();
  let setup_s, leg, leg_s, alloc, lag_txs = Option.get !out in
  let nvm_bytes = Wl.persisted devs in
  let expected = balances sh in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if sum expected <> total then
    fail "balances sum to %Ld before the cut, not %Ld" (sum expected) total;
  if !bad_reads > 0 then fail "%d balance reads out of range" !bad_reads;
  let layers =
    if not traced then []
    else
      let us p s = Wl.us (Samples.percentile s p) in
      let engines =
        List.init nshards (fun s ->
            let e = Sh.engine sh s in
            { Wl.eng = E.stats e; tm = Tmwrap.Tm.stats (E.tm e); shadow = E.shadow_stats e })
      in
      [
        ("serve.gen_lag_p99_us", us 99.0 leg.Leg.lag);
        ("shard.cross_frac", Wl.ratio !cross (Samples.count leg.Leg.writes));
        ("shard.cross_commit_p99_us", us 99.0 cross_commit);
        ("shard.single_commit_p50_us", us 50.0 single_commit);
        ("shard.frontier_wait_p99_us", us 99.0 frontier_wait);
        ("shard.local_wait_p50_us", us 50.0 local_wait);
        ("engine.reproduce_lag_txs", float_of_int lag_txs);
      ]
      @ Wl.engine_layers ~leg ~engines ~devs ~nvm_bytes
      @ Wl.span_layers ~leg [ "shard" ]
  in
  let recovery, extra =
    if not cut then (0, [])
    else begin
      List.iter (fun d -> Nvm.crash d) devs;
      let res = ref None in
      let cycles =
        Sched.run (fun () -> res := Some (Sh.attach ~nshards config (Array.of_list devs)))
      in
      let sh2, rec_ = Option.get !res in
      let got = balances sh2 in
      let lost = ref 0 in
      Array.iteri
        (fun s row -> Array.iteri (fun a v -> if got.(s).(a) <> v then incr lost) row)
        expected;
      if !lost > 0 then
        fail "%d balances differ from their acked value after the power cut" !lost;
      if sum got <> total then
        fail "balances sum to %Ld after recovery, not %Ld" (sum got) total;
      ( cycles,
        [
          ("shard.discarded_fragments", float_of_int rec_.Sh.discarded_fragments);
          ( "engine.recovery_replayed_txs",
            float_of_int
              (Array.fold_left
                 (fun acc r -> acc + r.Dudetm_core.Dudetm.replayed_txs)
                 0 rec_.Sh.reports) );
        ] )
    end
  in
  Wl.finish ~traced ~leg ~user_bytes:(16 * Samples.count leg.Leg.writes) ~nvm_bytes ~recovery
    ~failures:(List.rev !failures) ~setup_s ~leg_s ~alloc ~layers:(layers @ extra)
