(** Shared load-generation harness for the serving front end.

    One leg = [ntenants] x [sessions] client sessions driving the
    {!Serve} pipeline (instantiated over TinySTM) either open-loop —
    Poisson arrivals at a total offered rate independent of service time —
    or closed-loop (one request outstanding per session with think time).
    [bench serve], the [dudetm serve] CLI subcommand and the serve tests
    all run legs through this module so they agree on the keyspace
    ({!Dudetm_workloads.Tenant_mix}), the application binding and the
    measurement. *)

module Srv : module type of Serve.Make (Dudetm_tm.Tinystm)

type mode = Open of { ktps : float } | Closed of { think : int }

type result = {
  r_mode : string;
  r_offered_ktps : float;  (** open loop: the arrival rate; closed: 0 *)
  r_achieved_ktps : float;  (** goodput: executed + read replies *)
  r_elapsed : int;  (** simulated cycles *)
  r_done : int;
  r_shed : int;
  r_aborted : int;
  r_blocked : int;  (** open-loop window-exhausted stalls *)
  r_lat_write : Dudetm_sim.Stats.Latency.r;  (** submit -> durable ack *)
  r_lat_read : Dudetm_sim.Stats.Latency.r;
  r_tenant_done : int array;
  r_tenant_shed : int array;
  r_tenant_lat : Dudetm_sim.Stats.Latency.r array;
  r_gate_trips : int;
  r_gate_untrips : int;
  r_depth_hwm : int;
  r_counters : (string * int) list;
}

val engine_cfg : workers:int -> unit -> Dudetm_core.Config.t
(** The leg engine configuration: the combined persist pipeline (groups of
    4 transactions) with bench-sized rings (so ring pressure is reachable), [max 2 workers]
    Perform threads per shard. *)

val run :
  ?scfg:Serve.config ->
  ?theta:float ->
  ?ro_permille:int ->
  ?seed:int ->
  nshards:int ->
  ntenants:int ->
  sessions:int ->
  reqs:int ->
  mode:mode ->
  unit ->
  result
(** Run one leg to completion (every session issues its request count,
    then the front end drains and stops).  Deterministic for a given
    [seed]. *)
