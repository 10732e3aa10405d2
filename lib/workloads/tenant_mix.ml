(* Multi-tenant skewed keyspace: tenant [i] owns the contiguous key range
   [i*K, (i+1)*K) and draws keys from its own Zipf distribution over that
   range, while shard placement of every key still goes through the shared
   Partition descriptor — the serving front end, benches and tests all
   route with the same pure function. *)

type tenant = {
  lo : int64;  (* first key of the tenant's range *)
  keys : int;
  zipf : Zipf.t;
  ro_permille : int;
}

type t = { part : Partition.t; tenants : tenant array }

let create ?(theta = 0.99) ?(ro_permille = 500) ~ntenants ~keys_per_tenant
    ~nshards () =
  if ntenants < 1 then invalid_arg "Tenant_mix.create: ntenants < 1";
  if keys_per_tenant < 1 then invalid_arg "Tenant_mix.create: keys_per_tenant < 1";
  if ro_permille < 0 || ro_permille > 1000 then
    invalid_arg "Tenant_mix.create: ro_permille outside [0, 1000]";
  let part = Partition.hashed ~nshards in
  let zipf = Zipf.create ~n:keys_per_tenant ~theta in
  let tenants =
    Array.init ntenants (fun i ->
        {
          lo = Int64.mul (Int64.of_int i) (Int64.of_int keys_per_tenant);
          keys = keys_per_tenant;
          zipf;
          ro_permille;
        })
  in
  { part; tenants }

let sample_key t ~tenant rng =
  let tn = t.tenants.(tenant) in
  let rank = Zipf.sample tn.zipf rng in
  Int64.add tn.lo (Int64.of_int rank)

let tenant_range t ~tenant =
  let tn = t.tenants.(tenant) in
  (tn.lo, Int64.add tn.lo (Int64.of_int tn.keys))

let shard_of t key = Partition.shard_of t.part key

let is_read t ~tenant rng =
  let tn = t.tenants.(tenant) in
  Dudetm_sim.Rng.int rng 1000 < tn.ro_permille
