(* Shared load-generation harness for the serving front end: one leg =
   T tenants x S sessions driving the pipeline open-loop (Poisson, an
   offered rate independent of service time) or closed-loop (one request
   outstanding per session, think time between replies).  [bench serve],
   the [dudetm serve] CLI subcommand and the serve tests all run legs
   through this module so they agree on the keyspace (Tenant_mix), the
   application binding and the measurement. *)

module Sched = Dudetm_sim.Sched
module Cycles = Dudetm_sim.Cycles
module Rng = Dudetm_sim.Rng
module Stats = Dudetm_sim.Stats
module Config = Dudetm_core.Config
module Tenant_mix = Dudetm_workloads.Tenant_mix
module Srv = Serve.Make (Dudetm_tm.Tinystm)

type mode = Open of { ktps : float } | Closed of { think : int }

type result = {
  r_mode : string;
  r_offered_ktps : float;  (* open loop: the arrival rate; closed: 0 *)
  r_achieved_ktps : float;  (* goodput: executed + read replies *)
  r_elapsed : int;  (* simulated cycles *)
  r_done : int;  (* goodput replies *)
  r_shed : int;
  r_aborted : int;
  r_blocked : int;  (* open-loop window-exhausted stalls *)
  r_lat_write : Stats.Latency.r;  (* submit -> durable ack *)
  r_lat_read : Stats.Latency.r;
  r_tenant_done : int array;
  r_tenant_shed : int array;
  r_tenant_lat : Stats.Latency.r array;
  r_gate_trips : int;
  r_gate_untrips : int;
  r_depth_hwm : int;
  r_counters : (string * int) list;
}

(* Enough engine threads for the dispatcher workers; combined persist in
   groups of 4, smallish rings so ring pressure is reachable by a bench-sized burst. *)
let engine_cfg ~workers () =
  {
    Config.default with
    Config.heap_size = 1 lsl 18;
    nthreads = max 2 workers;
    vlog_capacity = 1 lsl 10;
    plog_size = 1 lsl 14;
    meta_size = 1 lsl 13;
    persist = Config.Combined { group = 4; compress = false };
    batch_deadline = 512;
    seed = 7;
  }

(* Key -> heap byte offset on its shard.  Keys are globally unique small
   ints (tenant * keys_per_tenant + rank), so giving each its own slot
   past the 64-byte root region can never alias. *)
let slot_of_key key = 64 + (8 * Int64.to_int key)

let app_of_mix mix =
  {
    Srv.shard_of = (fun key -> Tenant_mix.shard_of mix key);
    write =
      (fun tx ~shard ~key ~payload -> Srv.Sh.write tx ~shard (slot_of_key key) payload);
    read = (fun tx ~shard ~key -> Srv.Sh.read tx ~shard (slot_of_key key));
  }

let run ?scfg ?(theta = 0.99) ?(ro_permille = 500) ?(seed = 11) ~nshards ~ntenants ~sessions
    ~reqs ~mode () =
  let scfg = match scfg with Some c -> c | None -> Serve.default_config in
  let cfg = engine_cfg ~workers:scfg.Serve.workers_per_shard () in
  let keys_per_tenant = 1 lsl 10 in
  if ntenants * keys_per_tenant * 8 + 64 > cfg.Config.heap_size then
    invalid_arg "Serve_load.run: keyspace exceeds the shard heap";
  let mix =
    Tenant_mix.create ~theta ~ro_permille ~ntenants ~keys_per_tenant ~nshards ()
  in
  let sh = Srv.Sh.create ~nshards cfg in
  let srv = Srv.create ~scfg ~app:(app_of_mix mix) ~ntenants sh in
  let lat_write = Stats.Latency.create () in
  let lat_read = Stats.Latency.create () in
  let tenant_lat = Array.init ntenants (fun _ -> Stats.Latency.create ()) in
  let done_reqs = ref 0 and shed = ref 0 and aborted = ref 0 in
  let blocked = ref 0 in
  let total_sessions = ntenants * sessions in
  let on_reply d =
    match Srv.reply d with
    | Serve.R_executed _ ->
      incr done_reqs;
      Stats.Latency.record lat_write (Srv.latency d);
      Stats.Latency.record tenant_lat.(Srv.tenant_of d) (Srv.latency d)
    | Serve.R_value _ ->
      incr done_reqs;
      Stats.Latency.record lat_read (Srv.latency d);
      Stats.Latency.record tenant_lat.(Srv.tenant_of d) (Srv.latency d)
    | Serve.R_overloaded -> incr shed
    | Serve.R_aborted -> incr aborted
    | Serve.R_pending -> assert false
  in
  let gen tenant rng =
    let key = Tenant_mix.sample_key mix ~tenant rng in
    if Tenant_mix.is_read mix ~tenant rng then Serve.Read { key }
    else Serve.Write { key; payload = Rng.next_int64 rng }
  in
  let elapsed =
    Sched.run (fun () ->
        Srv.start srv;
        Sched.join ~label:"serve load sessions"
          (List.concat
             (List.init ntenants (fun tenant ->
                  List.init sessions (fun s ->
                    Sched.spawn
                      (Printf.sprintf "client-%d-%d" tenant s)
                      (fun () ->
                        let rng =
                          Rng.create (seed + (tenant * 131) + (s * 7919))
                        in
                        let sess = Srv.session srv ~tenant ~sid:s in
                        (match mode with
                        | Closed { think } ->
                          Srv.run_closed sess rng ~reqs ~think
                            ~gen:(gen tenant) ~on_reply
                        | Open { ktps } ->
                          (* Total offered rate [ktps] split evenly over every
                             session: per-session mean inter-arrival gap in
                             cycles. *)
                          let mean_gap =
                            int_of_float
                              (float_of_int total_sessions *. Cycles.per_second
                              /. (ktps *. 1000.0))
                          in
                          Srv.run_open sess rng ~reqs
                            ~mean_gap:(max 1 mean_gap) ~gen:(gen tenant) ~on_reply);
                        blocked := !blocked + Srv.session_blocked sess)))));
        Srv.stop srv)
  in
  let offered =
    match mode with Open { ktps } -> ktps | Closed _ -> 0.0
  in
  {
    r_mode = (match mode with Open _ -> "open" | Closed _ -> "closed");
    r_offered_ktps = offered;
    r_achieved_ktps =
      (if elapsed = 0 then 0.0
       else float_of_int !done_reqs /. (Cycles.to_us elapsed /. 1000.0));
    r_elapsed = elapsed;
    r_done = !done_reqs;
    r_shed = !shed;
    r_aborted = !aborted;
    r_blocked = !blocked;
    r_lat_write = lat_write;
    r_lat_read = lat_read;
    r_tenant_done = Array.init ntenants (Srv.tenant_done srv);
    r_tenant_shed = Array.init ntenants (Srv.tenant_shed srv);
    r_tenant_lat = tenant_lat;
    r_gate_trips = Admission.trips (Srv.gate srv);
    r_gate_untrips = Admission.untrips (Srv.gate srv);
    r_depth_hwm = Srv.depth_hwm srv;
    r_counters = Srv.counters srv;
  }
