(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator (workload keys, crash points,
    adversarial cache evictions) draws from an explicit [Rng.t] so whole
    experiments replay bit-for-bit from a seed. *)

type t

val create : int -> t
(** [create seed] makes a generator from a 63-bit seed. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val split : t -> t
(** [split t] returns a new generator seeded from [t]'s stream, advancing
    [t]; the two streams are statistically independent. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
