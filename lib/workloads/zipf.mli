(** Zipfian key sampler.

    The paper's skewed workloads (YCSB session store, swap-overhead sweep)
    draw keys from a Zipfian distribution with constants 0.99 and 1.07.
    This implementation precomputes the CDF and samples by binary search —
    exact, and fast enough for the population sizes the experiments use. *)

type t

val create : n:int -> theta:float -> t
(** Distribution over ranks [\[0, n)] with exponent [theta]. *)

val n : t -> int

val sample : t -> Dudetm_sim.Rng.t -> int
(** A rank in [\[0, n)]; rank 0 is the most popular. *)

val pmf : t -> int -> float
(** Probability of a rank (for tests). *)
