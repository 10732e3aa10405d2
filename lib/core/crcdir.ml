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
   [seen] one bit per extent.  Both only grow, so a set in steady use
   allocates nothing. *)
type dirty = { mutable seen : Bytes.t; mutable marked : int array; mutable count : int }

let dirty () = { seen = Bytes.empty; marked = [||]; count = 0 }

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

let dirty_extents d = List.init d.count (fun k -> d.marked.(d.count - 1 - k))

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

(* Newest first; each cell of [marked] is reused for its extent's slot
   offset once the slot is stored. *)
let update t d =
  let n = d.count in
  if n > 0 then begin
    for k = n - 1 downto 0 do
      let i = d.marked.(k) in
      flip d i;
      set_slot t i (compute_latest t i);
      d.marked.(k) <- slot_off t i
    done;
    (* [persist_words] walks its buffer from the top down. *)
    Nvm.persist_words t.nvm d.marked n;
    d.count <- 0
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
