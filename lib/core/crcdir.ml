module Nvm = Dudetm_nvm.Nvm
module Checksum = Dudetm_log.Checksum

type t = {
  nvm : Nvm.t;
  base : int;  (* directory base on the device *)
  n : int;  (* number of entries *)
  extent : bytes;  (* scratch: the extent being checksummed *)
  word : bytes;  (* scratch: the slot word being stored *)
}

(* A set of extent indices: [marked.(0 .. count - 1)] in marking order,
   [seen] one bit per extent.  [counts] and [order] are [update]'s
   scratch.  Every array only grows, so a set in steady use allocates
   nothing. *)
type dirty = {
  buckets : int;
  mutable seen : Bytes.t;
  mutable marked : int array;
  mutable count : int;
  mutable counts : int array;
  mutable order : int array;
}

(* [Hashtbl.create n]'s bucket count. *)
let dirty ~buckets =
  let b = ref 16 in
  while !b < buckets do
    b := 2 * !b
  done;
  { buckets = !b; seen = Bytes.empty; marked = [||]; count = 0; counts = [||]; order = [||] }

let grow a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* Flip extent [e]'s bit in [seen]. *)
let flip d e =
  let i = e lsr 3 in
  Bytes.set_uint8 d.seen i (Bytes.get_uint8 d.seen i lxor (1 lsl (e land 7)))

let mark d e =
  let i = e lsr 3 in
  if i >= Bytes.length d.seen then begin
    let s = Bytes.make (max (i + 1) (2 * Bytes.length d.seen)) '\000' in
    Bytes.blit d.seen 0 s 0 (Bytes.length d.seen);
    d.seen <- s
  end;
  if Bytes.get_uint8 d.seen i land (1 lsl (e land 7)) = 0 then begin
    flip d e;
    if d.count = Array.length d.marked then begin
      let m = Array.make (max 16 (2 * d.count)) 0 in
      Array.blit d.marked 0 m 0 d.count;
      d.marked <- m
    end;
    d.marked.(d.count) <- e;
    d.count <- d.count + 1
  end

let marked d = d.count

(* Put [order.(0 .. count - 1)] in the order [Hashtbl.fold] visits a
   [Hashtbl.create buckets] table the same extents were added to in
   marking order: bucket by bucket — [Hashtbl.hash e] under the table's
   final size, doubled from [buckets] whenever it held more than two
   entries a bucket — and newest first within a bucket (an add prepends
   to its bucket; a resize keeps each bucket's order).  A counting sort:
   nothing allocated once the scratch has grown. *)
let sort d =
  let n = d.count in
  let size = ref d.buckets in
  while n > 2 * !size do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  d.counts <- grow d.counts (!size + 1);
  d.order <- grow d.order n;
  Array.fill d.counts 0 (!size + 1) 0;
  for k = 0 to n - 1 do
    let b = Hashtbl.hash d.marked.(k) land mask in
    d.counts.(b + 1) <- d.counts.(b + 1) + 1
  done;
  for b = 1 to !size do
    d.counts.(b) <- d.counts.(b) + d.counts.(b - 1)
  done;
  for k = n - 1 downto 0 do
    let e = d.marked.(k) in
    let b = Hashtbl.hash e land mask in
    d.order.(d.counts.(b)) <- e;
    d.counts.(b) <- d.counts.(b) + 1
  done

let clear d =
  for k = 0 to d.count - 1 do
    flip d d.marked.(k)
  done;
  d.count <- 0

let dirty_extents d =
  sort d;
  List.init d.count (fun k -> d.order.(d.count - 1 - k))

let n_extents t = t.n

let slot_off t i = t.base + (i * 8)

let compute_latest t i =
  Nvm.load_into t.nvm (i * Config.crc_extent) t.extent;
  Checksum.crc32_bytes t.extent

let compute_persisted t i =
  Nvm.persisted_into t.nvm (i * Config.crc_extent) t.extent;
  Checksum.crc32_bytes t.extent

let stored_crc_persisted t i =
  Int64.to_int (Nvm.persisted_u64 t.nvm (slot_off t i)) land 0xffffffff

let set_slot t i crc =
  Checksum.set_slot t.word 0 crc;
  Nvm.store_sub t.nvm (slot_off t i) t.word ~pos:0 ~len:8

(* The extents in the reverse of the fold's order — the order of the
   list a fold that conses builds, which fixes which slot lines turn
   dirty first and the order they are flushed in. *)
let update t d =
  let n = d.count in
  if n > 0 then begin
    sort d;
    for k = n - 1 downto 0 do
      let i = d.order.(k) in
      set_slot t i (compute_latest t i);
      d.order.(k) <- slot_off t i
    done;
    (* [persist_words] walks its buffer from the top down. *)
    Nvm.persist_words t.nvm d.order n;
    clear d
  end

let verify_extent t i =
  match compute_persisted t i with
  | exception Nvm.Media_error _ -> `Poisoned
  | crc -> (
    match stored_crc_persisted t i with
    | exception Nvm.Media_error _ -> `Poisoned
    | stored -> if crc = stored then `Ok else `Mismatch)

let attach nvm cfg =
  {
    nvm;
    base = Config.crcdir_base cfg;
    n = cfg.Config.heap_size / Config.crc_extent;
    extent = Bytes.create Config.crc_extent;
    word = Bytes.create 8;
  }

let format nvm cfg =
  let t = attach nvm cfg in
  (* A fresh heap is zero-filled, so every entry holds the CRC of one
     all-zero extent — compute it once. *)
  let zero = Checksum.crc32_bytes (Bytes.make Config.crc_extent '\000') in
  for i = 0 to t.n - 1 do
    set_slot t i zero
  done;
  Nvm.persist nvm ~off:t.base ~len:(t.n * 8);
  t
