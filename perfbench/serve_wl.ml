(* The serve workloads (ingest-1s, lookup-8s): tenants x sessions of open
   loop clients driving the serving front end over a sharded engine on
   PCM-class devices.  Writes carry payloads unique per request, so after
   the power cut each key must hold the payload of its highest-tid acked
   write, and every read must return the preload value or a payload some
   write to that key carried. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Trace = Dudetm_trace.Trace
module Config = Dudetm_core.Config
module Pmem_config = Dudetm_nvm.Pmem_config
module Tenant_mix = Dudetm_workloads.Tenant_mix
module Serve = Dudetm_serve.Serve
module Admission = Dudetm_serve.Admission
module Srv = Serve.Make (Tmwrap.Tm)
module Sh = Srv.Sh
module E = Sh.Engine

type spec = {
  nshards : int;
  ntenants : int;
  sessions : int;  (** per tenant *)
  slots : int;  (** client window per session *)
  keys_per_tenant : int;
  theta : float;
  ro_permille : int;
  frames : int option;  (** paged shadow frames per shard; [None]: heap-sized *)
  heap_size : int;
}

let slot key = 64 + (8 * Int64.to_int key)

let preload_value key = Int64.neg (Int64.succ key)

let config spec =
  {
    (Dudetm_serve.Serve_load.engine_cfg
       ~workers:Serve.default_config.Serve.workers_per_shard ())
    with
    Config.heap_size = spec.heap_size;
    pmem = Pmem_config.pcm;
    shadow_frames = spec.frames;
  }

(* Write every key's preload value, 64 keys per transaction, each batch
   durable before the next. *)
let preload sh mix nkeys =
  let by_shard = Array.make (Sh.nshards sh) [] in
  for k = nkeys - 1 downto 0 do
    let key = Int64.of_int k in
    let s = Tenant_mix.shard_of mix key in
    by_shard.(s) <- key :: by_shard.(s)
  done;
  Array.iteri
    (fun s keys ->
      let keys = Array.of_list keys in
      let n = Array.length keys in
      let b = ref 0 in
      while !b < n do
        let lo = !b and hi = min n (!b + 64) in
        (match
           Sh.atomically sh ~thread:0 ~shards:[ s ] (fun tx ->
               for i = lo to hi - 1 do
                 Sh.write tx ~shard:s (slot keys.(i)) (preload_value keys.(i))
               done)
         with
        | Some ((), ack) -> Sh.wait_durable sh ack
        | None -> failwith "preload aborted");
        b := hi
      done)
    by_shard

let engine_stats sh =
  List.concat
    (List.init (Sh.nshards sh) (fun s ->
         let e = Sh.engine sh s in
         E.stats e :: Tmwrap.Tm.stats (E.tm e) :: Option.to_list (E.shadow_stats e)))

let run spec ~seed ~mtps ~reqs ~traced ~cut =
  let nkeys = spec.ntenants * spec.keys_per_tenant in
  let mix =
    Tenant_mix.create ~theta:spec.theta ~ro_permille:spec.ro_permille
      ~ntenants:spec.ntenants ~keys_per_tenant:spec.keys_per_tenant ~nshards:spec.nshards ()
  in
  let cfg = config spec in
  let h0 = Wl.cpu () in
  let sh = Sh.create ~nshards:spec.nshards cfg in
  let devs = List.init spec.nshards (Sh.nvm sh) in
  (* Traced run only: when each write's body first started and when it
     committed, keyed by its unique payload, for queue and ack waits. *)
  let body_start = Hashtbl.create 1024 and body_end = Hashtbl.create 1024 in
  let current = Hashtbl.create 16 in
  let app =
    {
      Srv.shard_of = Tenant_mix.shard_of mix;
      write =
        (fun tx ~shard ~key ~payload ->
          if traced then begin
            if not (Hashtbl.mem body_start payload) then
              Hashtbl.replace body_start payload (Sched.now ());
            Hashtbl.replace current (Sched.self ()) payload
          end;
          Sh.write tx ~shard (slot key) payload);
      read = (fun tx ~shard ~key -> Sh.read tx ~shard (slot key));
    }
  in
  Tmwrap.Tm.on_commit :=
    (fun () ->
      match Hashtbl.find_opt current (Sched.self ()) with
      | Some p -> Hashtbl.replace body_end p (Sched.now ())
      | None -> ());
  let srv = Srv.create ~app ~ntenants:spec.ntenants sh in
  (* Oracle state: per key the (tid, payload) of its highest-tid acked
     write; per payload the key it was written to. *)
  let last = Array.init nkeys (fun k -> (0, preload_value (Int64.of_int k))) in
  let written = Hashtbl.create 4096 in
  let bad_reads = ref 0 in
  let queue_wait = Samples.create () and ack_wait = Samples.create () in
  let sessions = spec.ntenants * spec.sessions in
  let gen rng ~session ~idx =
    let tenant = session / spec.sessions in
    let key = Tenant_mix.sample_key mix ~tenant rng in
    if Tenant_mix.is_read mix ~tenant rng then Serve.Read { key }
    else Serve.Write { key; payload = Int64.of_int (1 + (session * reqs) + idx) }
  in
  let issue ~session op =
    (match op with
    | Serve.Write { key; payload } -> Hashtbl.replace written payload key
    | Serve.Read _ -> ());
    let d = Srv.make_desc ~tenant:(session / spec.sessions) ~session op in
    let t_sub = Sched.now () in
    if not (Spans.wrap "serve.submit" (fun () -> Srv.submit srv d)) then Leg.Shed
    else
      match (Spans.wrap "serve.await" (fun () -> Srv.await d), op) with
      | Serve.R_executed { tid; _ }, Serve.Write { key; payload } ->
        let k = Int64.to_int key in
        if tid > fst last.(k) then last.(k) <- (tid, payload);
        if traced then begin
          Option.iter (fun b -> Samples.add queue_wait (b - t_sub))
            (Hashtbl.find_opt body_start payload);
          Option.iter (fun e -> Samples.add ack_wait (Sched.now () - e))
            (Hashtbl.find_opt body_end payload)
        end;
        Leg.Acked_write
      | Serve.R_value v, Serve.Read { key } ->
        if v <> preload_value key && Hashtbl.find_opt written v <> Some key then
          incr bad_reads;
        Leg.Replied_read
      | Serve.R_aborted, _ -> Leg.Aborted
      | _ -> Leg.Shed
  in
  let out = ref None in
  ignore
    (Sched.run (fun () ->
         Srv.start srv;
         preload sh mix nkeys;
         let setup_s = Wl.cpu () -. h0 in
         let leg, leg_s, alloc =
           Wl.measured ~traced ~stats:(engine_stats sh) devs (fun () ->
               Leg.run ~seed ~sessions ~slots:spec.slots ~reqs ~mtps ~gen ~issue)
         in
         let lag =
           List.init spec.nshards (fun s ->
               let e = Sh.engine sh s in
               E.durable_id e - E.applied_id e)
         in
         out := Some (setup_s, leg, leg_s, alloc, List.fold_left ( + ) 0 lag)));
  Trace.disable ();
  let setup_s, leg, leg_s, alloc, lag_txs = Option.get !out in
  let nvm_bytes = Wl.persisted devs in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  if !bad_reads > 0 then fail "%d reads returned a value no write produced" !bad_reads;
  if Stats.get (Srv.stats srv) "submitted" <> leg.Leg.submitted then
    fail "serve counted %d submissions, the clients %d"
      (Stats.get (Srv.stats srv) "submitted")
      leg.Leg.submitted;
  let layers =
    if not traced then []
    else
      let p99 s = Wl.us (Samples.percentile s 99.0) in
      let engines =
        List.init spec.nshards (fun s ->
            let e = Sh.engine sh s in
            { Wl.eng = E.stats e; tm = Tmwrap.Tm.stats (E.tm e); shadow = E.shadow_stats e })
      in
      [
        ("serve.gen_lag_p99_us", p99 leg.Leg.lag);
        ("serve.window_stalls", float_of_int leg.Leg.stalls);
        ("serve.queue_wait_p99_us", p99 queue_wait);
        ("serve.ack_wait_p99_us", p99 ack_wait);
        ("serve.shed", float_of_int (Srv.shed_total srv));
        ("serve.gate_trips", float_of_int (Admission.trips (Srv.gate srv)));
        ("serve.depth_hwm", float_of_int (Srv.depth_hwm srv));
        ("engine.reproduce_lag_txs", float_of_int lag_txs);
      ]
      @ Wl.engine_layers ~leg ~engines ~devs ~nvm_bytes
      @ Wl.span_layers ~leg [ "serve" ]
  in
  let recovery, extra =
    if not cut then (0, [])
    else begin
      List.iter (fun d -> Nvm.crash d) devs;
      let res = ref None in
      let cycles =
        Sched.run (fun () ->
            res := Some (Sh.attach ~nshards:spec.nshards cfg (Array.of_list devs)))
      in
      let sh2, rec_ = Option.get !res in
      let lost = ref 0 in
      Array.iteri
        (fun k (_, payload) ->
          let key = Int64.of_int k in
          let e = Sh.engine sh2 (Tenant_mix.shard_of mix key) in
          if E.heap_read_u64 e (slot key) <> payload then incr lost)
        last;
      if !lost > 0 then fail "%d keys lost their last acked write in the power cut" !lost;
      ( cycles,
        [
          ( "engine.recovery_replayed_txs",
            float_of_int
              (Array.fold_left
                 (fun acc r -> acc + r.Dudetm_core.Dudetm.replayed_txs)
                 0 rec_.Sh.reports) );
        ] )
    end
  in
  Wl.finish ~traced ~leg ~user_bytes:(8 * Samples.count leg.Leg.writes) ~nvm_bytes ~recovery
    ~failures:(List.rev !failures) ~setup_s ~leg_s ~alloc ~layers:(layers @ extra)
