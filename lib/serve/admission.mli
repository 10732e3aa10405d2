(** Hysteresis admission gate for the serving front end.

    A two-state machine driven by the observable overload signals (bounded
    request-queue depth, engine ring pressure): it trips to [Shedding]
    when depth reaches the high threshold or the engine's persistent-log
    rings cross their backpressure high-water mark, and reopens only once
    depth has drained to the low threshold {e and} pressure has cleared.
    The gap between the thresholds is the flap guard — a depth oscillating
    strictly inside [(untrip, trip)] never changes state. *)

exception Invalid_admission of string

type state = Open | Shedding

type t

val create : trip:int -> untrip:int -> t
(** Raises {!Invalid_admission} unless [0 <= untrip < trip]. *)

val observe : t -> depth:int -> pressure:bool -> state
(** Feed one observation and return the (possibly updated) state: the
    write-admission decision.  [Shedding] means shed with a typed
    [Overloaded] reply instead of queueing. *)

val state : t -> state

val trips : t -> int
(** Open→Shedding transitions so far. *)

val untrips : t -> int
(** Shedding→Open transitions so far. *)
