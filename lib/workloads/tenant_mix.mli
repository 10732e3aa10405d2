(** Multi-tenant skewed keyspace model.

    One arrival/keyspace model shared by the serving front end
    ([lib/serve]), [bench serve] and the serve tests: tenant [i] owns the
    contiguous key range [\[i*K, (i+1)*K)] and draws keys from a
    per-tenant Zipf distribution over that range (rank 0, the hottest key,
    sits at the range base), while shard placement goes through the
    existing {!Partition} descriptor so every layer routes a key with the
    same pure function. *)

type t

val create :
  ?theta:float ->
  ?ro_permille:int ->
  ntenants:int ->
  keys_per_tenant:int ->
  nshards:int ->
  unit ->
  t
(** [theta] defaults to 0.99 (the paper's YCSB constant); [ro_permille]
    (reads per 1000 requests, default 500) drives {!is_read}.  Placement
    uses {!Partition.hashed}.  Raises [Invalid_argument] on non-positive
    sizes or [ro_permille] outside [\[0, 1000]]. *)

val sample_key : t -> tenant:int -> Dudetm_sim.Rng.t -> int64
(** A key in the tenant's range, Zipf-skewed towards the range base. *)

val tenant_range : t -> tenant:int -> int64 * int64
(** The half-open key range [\[lo, hi)] tenant [tenant] owns. *)

val shard_of : t -> int64 -> int
(** Stable shard placement via the shared partition descriptor. *)

val is_read : t -> tenant:int -> Dudetm_sim.Rng.t -> bool
(** Whether the next request from this tenant is read-only. *)
