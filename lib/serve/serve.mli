(** Multi-tenant request pipeline over the sharded engine.

    Simulated client sessions drive open-loop (Poisson) and closed-loop
    arrivals through a bounded request queue into {!Dudetm_shard.Shard}.
    Requests are handed over {e by reference}: a session owns a pool of
    request descriptors (plain mutable records, key/payload as unboxed
    int64 fields — no serialize/copy on the hot path) and transfers
    ownership of one to the pipeline at {!Make.submit}; it gets the
    descriptor back, reply filled in, once the request is crash-safe.

    Admission control sheds writes with a typed {!reply.R_overloaded}
    when the hysteresis gate ({!Admission}) trips on queue depth or engine
    ring pressure; read-only requests route through the snapshot fast path
    ([atomically_ro]) and bypass the write-admission gate.  Dispatch is
    deficit-round-robin across tenants.  Write acknowledgements are
    released strictly at the shard's durable watermark — the acked-prefix
    invariant [dudetm check --serve] power-cuts against.

    Trace spans: [serve.enqueue], [serve.dispatch], [serve.reply], and a
    [serve.shed] instant (argument: the shed tenant) — all literal-string
    call sites, preserving the zero-alloc-when-disabled invariant. *)

exception Descriptor_in_flight of string
(** A session touched a descriptor the pipeline currently owns (or
    double-submitted one).  By-reference handoff means the session loses
    write access at [submit] and regains it with the reply. *)

exception Invalid_serve_config of string

type op = Write of { key : int64; payload : int64 } | Read of { key : int64 }

type reply =
  | R_pending  (** in flight *)
  | R_value of int64  (** read result (snapshot fast path) *)
  | R_executed of { shard : int; tid : int }
      (** write acknowledged at the durable watermark *)
  | R_overloaded  (** shed by admission control; never reached the engine *)
  | R_aborted  (** the application body called abort; not executed *)

type owner = By_session | By_pipeline

type config = {
  queue_capacity : int;  (** hard bound on queued requests, all tenants *)
  trip_depth : int;  (** admission gate trips at this queue depth *)
  untrip_depth : int;  (** ... and reopens at this one (hysteresis gap) *)
  drr_quantum : int;  (** requests per tenant per round-robin round *)
  slots_per_session : int;  (** descriptor pool = open-loop client window *)
  workers_per_shard : int;  (** dispatcher fibers (engine threads) per shard *)
}

val default_config : config

module Make (Tm : Dudetm_tm.Tm_intf.S) : sig
  module Sh : module type of Dudetm_shard.Shard.Make (Tm)

  module Engine : module type of Sh.Engine

  (** The application binds keys to transactional reads/writes; keeping
      these as closures keeps the descriptor plain data (zero-copy
      handoff) while the serve layer stays key-value agnostic. *)
  type app = {
    shard_of : int64 -> int;
    write : Sh.tx -> shard:int -> key:int64 -> payload:int64 -> unit;
    read : Sh.tx -> shard:int -> key:int64 -> int64;
  }

  type desc

  type t

  (** {1 Lifecycle} *)

  val create : ?scfg:config -> app:app -> ntenants:int -> Sh.t -> t
  (** Build the front end over a created/attached sharded instance.
      Raises {!Invalid_serve_config} if [workers_per_shard]
      exceeds the engine's Perform threads. *)

  val start : t -> unit
  (** [Sh.start] plus dispatcher and acker fibers; run inside
      {!Dudetm_sim.Sched.run}. *)

  val drain : t -> unit
  (** Block until every accepted request has been replied to, then drain
      the engine.  Raises [Dudetm_core.Dudetm.Drain_stalled] (with the
      front-end context folded in) if the drain budget expires first. *)

  val stop : t -> unit

  (** {1 Descriptors (by-reference request handoff)} *)

  val make_desc : tenant:int -> session:int -> op -> desc

  val set_op : desc -> op -> unit
  (** Raises {!Descriptor_in_flight} unless the session owns it. *)

  val submit : t -> desc -> bool
  (** Transfer ownership to the pipeline.  Returns [false] when the
      request was shed: the reply is already [R_overloaded] and the
      session keeps ownership.  Returns [true] when accepted — the
      session must not touch the descriptor until {!await} (or until
      ownership is back).  Raises {!Descriptor_in_flight} on a descriptor
      already in flight. *)

  val await : desc -> reply
  (** Block until the pipeline hands the descriptor back. *)

  val reply : desc -> reply
  (** Raises {!Descriptor_in_flight} while the pipeline owns it. *)

  val tenant_of : desc -> int

  val latency : desc -> int
  (** Reply minus submit timestamp, simulated cycles. *)

  (** {1 Sessions (arrival processes)} *)

  type session

  val session : t -> tenant:int -> sid:int -> session
  (** A client session with [slots_per_session] descriptors. *)

  val run_closed :
    session ->
    Dudetm_sim.Rng.t ->
    reqs:int ->
    think:int ->
    gen:(Dudetm_sim.Rng.t -> op) ->
    on_reply:(desc -> unit) ->
    unit
  (** Closed loop: one request outstanding; think time between replies. *)

  val run_open :
    session ->
    Dudetm_sim.Rng.t ->
    reqs:int ->
    mean_gap:int ->
    gen:(Dudetm_sim.Rng.t -> op) ->
    on_reply:(desc -> unit) ->
    unit
  (** Open loop: Poisson arrivals with exponential inter-arrival times of
      mean [mean_gap] cycles, window-limited by the descriptor pool (a
      full window stalls the arrival process and counts in
      {!session_blocked} — the system is then saturated past the shedding
      knee). *)

  val session_blocked : session -> int

  (** {1 Introspection} *)

  val config : t -> config

  val depth_hwm : t -> int

  val gate : t -> Admission.t

  val stats : t -> Dudetm_sim.Stats.t
  (** ["submitted"], ["accepted"], ["shed"], ["reads"], ["writes"],
      ["replies"]. *)

  val tenant_done : t -> int -> int

  val tenant_shed : t -> int -> int

  val shed_total : t -> int

  val counters : t -> (string * int) list
  (** {!stats} plus gate trips/untrips and the queue-depth high-water
      mark. *)
end
