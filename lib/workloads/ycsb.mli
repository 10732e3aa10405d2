(** YCSB Session Store workload (Section 5.4 / Figure 3).

    A B+-tree key-value store loaded with a fixed record population;
    transactions are 50/50 reads and updates with keys drawn from a
    Zipfian distribution (constant 0.99 in the paper's log-optimization
    experiment; 0.99/1.07 in the swap-overhead sweep, which uses the
    update-only variant). *)

type t

val setup :
  Dudetm_baselines.Ptm_intf.t ->
  records:int ->
  theta:float ->
  ?read_fraction:float ->
  unit ->
  t
(** Loads keys [1..records]. *)

val update_only : t -> thread:int -> rng:Dudetm_sim.Rng.t -> unit
(** One update transaction (Figure 4's workload). *)

val transaction_tid : t -> thread:int -> rng:Dudetm_sim.Rng.t -> int
(** One session-store transaction: a lookup with probability
    [read_fraction], else an update of a Zipfian key.  Returns the commit
    ID (0 for reads) so the caller can track durability acknowledgement
    latency. *)

(** {1 Standard YCSB core workloads (extension beyond the paper)} *)

type mix = {
  reads : float;
  updates : float;
  inserts : float;
  scans : float;
  rmws : float;
}

val workload_a : mix
(** 50/50 read/update — the paper's session-store mix. *)

val workload_b : mix
(** 95/5 read/update. *)

val workload_c : mix
(** read-only. *)

val workload_d : mix
(** 95/5 read/insert (fresh keys). *)

val workload_e : mix
(** 95/5 scan/insert; scans cover up to 100 consecutive keys. *)

val workload_f : mix
(** 50/50 read / read-modify-write. *)

val mixed_transaction :
  t -> mix -> thread:int -> rng:Dudetm_sim.Rng.t -> insert_counter:int ref -> int
(** Run one operation drawn from [mix]; returns the commit ID (0 for
    read-only operations).  [insert_counter] is the calling thread's
    private insert sequence. *)

val tree : t -> Bptree_app.t
