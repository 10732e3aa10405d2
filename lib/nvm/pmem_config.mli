(** Cost-model parameters of the simulated persistent memory.

    Mirrors the paper's emulation (Section 5.1): a fixed persist-ordering
    latency per persist operation (3500 cycles for PCM-class writes, 1000 for
    the optimistic projection) and a write-bandwidth cap swept from 1 to
    16 GB/s. *)

type t = {
  persist_latency : int;  (** cycles charged per persist ordering *)
  bandwidth_gbps : float;  (** NVM write bandwidth in GB/s *)
  line_size : int;  (** cache-line granularity of flushes, bytes *)
}

val default : t
(** 1000-cycle latency, 1 GB/s, 64-byte lines — the paper's base config. *)

val pcm : t
(** 3500-cycle latency variant. *)
