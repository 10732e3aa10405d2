(** Cycle-count arithmetic for the simulated machine.

    All simulated costs in this repository are expressed in CPU cycles of a
    nominal 3.4 GHz core (the paper's Xeon E5-2643 v4).  This module holds the
    conversion helpers between cycles, wall-clock time and NVM bandwidth. *)

val per_second : float
(** Cycles per second of the nominal 3.4 GHz core. *)

val of_ns : float -> int
(** [of_ns t] is the number of cycles covering [t] nanoseconds. *)

val to_us : int -> float
(** [to_us c] converts a cycle count to microseconds. *)

val to_seconds : int -> float
(** [to_seconds c] converts a cycle count to seconds. *)

val per_byte_of_gbps : float -> float
(** [per_byte_of_gbps bw] is the number of cycles needed to move one byte
    over a channel of [bw] GB/s (decimal gigabytes, as the paper uses). *)
