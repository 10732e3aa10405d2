(* Deterministic keyspace partitioner shared by the KV, YCSB and hash-table
   drivers when they run over sharded storage.  The mapping is a pure
   function of the descriptor — no run state — so a shard assignment
   computed before a crash is exactly the assignment computed after
   re-attach, provided the descriptor words were persisted (e.g. in the
   root block or the handoff journal's descriptor record). *)

module Checksum = Dudetm_log.Checksum

exception Invalid_partition of string

let () =
  Printexc.register_printer (function
    | Invalid_partition msg -> Some (Printf.sprintf "Invalid_partition %S" msg)
    | _ -> None)

type scheme =
  | Hash
  | Buckets of { lo : int64; hi : int64; owners : int array }

type t = { scheme : scheme; nshards : int }

let check_nshards nshards =
  if nshards < 1 then invalid_arg "Partition: nshards < 1";
  if nshards > 0xffff then invalid_arg "Partition: nshards too large"

let hashed ~nshards =
  check_nshards nshards;
  { scheme = Hash; nshards }

let buckets ~nshards ~lo ~hi ~owners =
  check_nshards nshards;
  if Int64.compare lo hi >= 0 then invalid_arg "Partition.buckets: empty key range";
  let nb = Array.length owners in
  if nb < 1 then invalid_arg "Partition.buckets: no buckets";
  if nb > 0xffff then invalid_arg "Partition.buckets: too many buckets";
  Array.iter
    (fun o ->
      if o < 0 || o >= nshards then invalid_arg "Partition.buckets: owner out of range")
    owners;
  { scheme = Buckets { lo; hi; owners = Array.copy owners }; nshards }

let nshards t = t.nshards

let scheme t = t.scheme

(* splitmix64 finalizer: a fixed, platform-independent mix so hash
   placement never depends on OCaml's polymorphic hash. *)
let mix64 k =
  let open Int64 in
  let z = mul (logxor k (shift_right_logical k 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Equal-width index of [key] over [n] buckets covering [lo, hi), computed
   with unsigned 64-bit arithmetic so the full keyspace
   [min_int, max_int) — whose span wraps signed subtraction — still
   partitions correctly.  Keys outside the range clamp to the edges. *)
let width_index ~lo ~hi ~n key =
  if Int64.compare key lo <= 0 then 0
  else if Int64.compare key hi >= 0 then n - 1
  else begin
    let span = Int64.sub hi lo in
    let w = Int64.unsigned_div span (Int64.of_int n) in
    let w = if w = 0L then 1L else w in
    let off = Int64.sub key lo in
    let idx = Int64.unsigned_div off w in
    if Int64.unsigned_compare idx (Int64.of_int (n - 1)) >= 0 then n - 1
    else Int64.to_int idx
  end

let bucket_of t key =
  match t.scheme with
  | Hash ->
    let h = Int64.to_int (Int64.shift_right_logical (mix64 key) 3) in
    h mod t.nshards
  | Buckets { lo; hi; owners } -> width_index ~lo ~hi ~n:(Array.length owners) key

let shard_of t key =
  match t.scheme with
  | Hash -> bucket_of t key
  | Buckets { owners; _ } -> owners.(bucket_of t key)

let nbuckets t =
  match t.scheme with
  | Hash -> t.nshards
  | Buckets { owners; _ } -> Array.length owners

let owners t =
  match t.scheme with
  | Buckets { owners; _ } -> Array.copy owners
  | Hash -> invalid_arg "Partition.owners: not a bucket partition"

let with_owner t ~blo ~bhi ~owner =
  match t.scheme with
  | Buckets { lo; hi; owners } ->
    let nb = Array.length owners in
    if blo < 0 || bhi > nb || blo >= bhi then
      invalid_arg "Partition.with_owner: bad bucket range";
    if owner < 0 || owner >= t.nshards then
      invalid_arg "Partition.with_owner: owner out of range";
    let owners = Array.copy owners in
    for b = blo to bhi - 1 do
      owners.(b) <- owner
    done;
    { t with scheme = Buckets { lo; hi; owners } }
  | Hash -> invalid_arg "Partition.with_owner: not a bucket partition"

(* ------------------------------------------------------------------ *)
(* Persistent descriptor                                               *)
(* ------------------------------------------------------------------ *)

(* Head word: low 2 bits are the scheme kind (0 hash, 2 buckets; kind 1
   does not decode), bits 2..17 the shard count, bits 18..33 the bucket
   count.  Hash descriptors are the historical fixed 3 words; Buckets
   appends one packed owner byte per bucket (8 per word). *)

let descriptor_words = 3

let head ~kind ~nshards ~nbuckets =
  Int64.of_int ((nbuckets lsl 18) lor (nshards lsl 2) lor kind)

let owner_words nb = (nb + 7) / 8

let encoded_words t =
  match t.scheme with
  | Hash -> descriptor_words
  | Buckets { owners; _ } -> descriptor_words + owner_words (Array.length owners)

let encode t =
  match t.scheme with
  | Hash -> [| head ~kind:0 ~nshards:t.nshards ~nbuckets:0; 0L; 0L |]
  | Buckets { lo; hi; owners } ->
    let nb = Array.length owners in
    let w = Array.make (descriptor_words + owner_words nb) 0L in
    w.(0) <- head ~kind:2 ~nshards:t.nshards ~nbuckets:nb;
    w.(1) <- lo;
    w.(2) <- hi;
    Array.iteri
      (fun b o ->
        let word = descriptor_words + (b / 8) and sh = 8 * (b mod 8) in
        w.(word) <- Int64.logor w.(word) (Int64.shift_left (Int64.of_int (o land 0xff)) sh))
      owners;
    w

let decode w =
  if Array.length w < descriptor_words then invalid_arg "Partition.decode: bad descriptor";
  let h = Int64.to_int w.(0) in
  let kind = h land 3 in
  let nshards = (h lsr 2) land 0xffff in
  let nb = (h lsr 18) land 0xffff in
  check_nshards nshards;
  match kind with
  | 0 when Array.length w = descriptor_words -> { scheme = Hash; nshards }
  | 2 when nb >= 1 && Array.length w = descriptor_words + owner_words nb ->
    let ow =
      Array.init nb (fun b ->
          let word = descriptor_words + (b / 8) and sh = 8 * (b mod 8) in
          Int64.to_int (Int64.logand (Int64.shift_right_logical w.(word) sh) 0xffL))
    in
    buckets ~nshards ~lo:w.(1) ~hi:w.(2) ~owners:ow
  | _ -> invalid_arg "Partition.decode: bad descriptor"

(* ------------------------------------------------------------------ *)
(* CRC-sealed descriptor (attach-time validation)                      *)
(* ------------------------------------------------------------------ *)

let crc_of_words w n =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (8 * i) w.(i)
  done;
  Int64.of_int32 (Int32.of_int (Checksum.crc32 b 0 (8 * n)))

let seal t =
  let w = encode t in
  let n = Array.length w in
  let s = Array.make (n + 1) 0L in
  Array.blit w 0 s 0 n;
  s.(n) <- crc_of_words w n;
  s

let sealed_words t = encoded_words t + 1

let unseal ?expect_nshards w =
  let fail msg = raise (Invalid_partition ("Partition: " ^ msg)) in
  let n = Array.length w - 1 in
  if n < descriptor_words then fail "sealed descriptor too short";
  if crc_of_words w n <> w.(n) then fail "descriptor CRC mismatch (stale or corrupt)";
  let p =
    match decode (Array.sub w 0 n) with
    | p -> p
    | exception Invalid_argument msg -> fail msg
  in
  (match expect_nshards with
  | Some ns when ns <> p.nshards ->
    fail
      (Printf.sprintf "descriptor is for %d shards but the instance has %d" p.nshards ns)
  | _ -> ());
  p
