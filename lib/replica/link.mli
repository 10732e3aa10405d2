(** Simulated replication interconnect: one direction of one point-to-point
    link.

    Modelled like the simulated NVM device ([lib/nvm]): a serialized
    bandwidth channel plus a fixed per-frame latency — a frame sent at [t]
    is deliverable at [max t busy_until + max latency (bytes/bw)] — with
    seeded injectable link faults in the style of the NVM media faults:
    drop, duplicate, reorder, delay, and corrupt (a flipped bit that the
    wire frame's CRC must catch at the receiver).

    Sends never block the sender (the primary's Persist daemon must not
    stall on a slow replica); receivers poll {!recv}, which releases frames
    in delivery-time order once the receiving fiber's clock has reached
    each frame's deliver-at stamp.  A partitioned link drops every frame at
    the send side until healed. *)

type faults = {
  drop : float;  (** P(frame silently lost) *)
  duplicate : float;  (** P(frame delivered twice, copies a latency apart) *)
  reorder : float;  (** P(frame held back past later traffic) *)
  delay : float;  (** P(frame delayed by [delay_cycles]) *)
  delay_cycles : int;
  corrupt : float;  (** P(one bit flipped in flight; CRC-detected) *)
}

val no_faults : faults

type config = {
  latency : int;  (** per-frame one-way latency, simulated cycles *)
  bandwidth_gbps : float;  (** serialized channel bandwidth *)
  faults : faults;
  seed : int;  (** per-link fault stream (combined with the link label) *)
}

val default_config : config
(** 20k-cycle latency (a few µs at nominal clock), 10 GB/s, no faults. *)

type t

val create : label:string -> config -> t
(** [label] names the link in trace per-link byte accounting
    ({!Dudetm_trace.Trace.link_accts}) and salts its fault stream. *)

val send : t -> bytes -> unit
(** Enqueue a frame; never blocks.  Applies the fault model and charges the
    serialized channel (accounted via [Trace.link_transfer]).  The frame
    is never mutated — the corruption fault flips a bit in a copy — so one
    encoded frame may be sent on several links. *)

val recv : t -> bytes option
(** Next frame whose delivery time has been reached by the calling fiber's
    clock, in delivery order; [None] when nothing is deliverable yet. *)

val set_partitioned : t -> bool -> unit

val partitioned : t -> bool

val in_flight : t -> int
(** Frames sent but not yet received. *)

val stats : t -> Dudetm_sim.Stats.t
(** ["frames_sent"], ["bytes_sent"], ["frames_delivered"],
    ["frames_dropped"], ["frames_dropped_partition"],
    ["frames_duplicated"], ["frames_reordered"], ["frames_delayed"],
    ["frames_corrupted"]. *)
