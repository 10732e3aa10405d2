module Nvm = Dudetm_nvm.Nvm
module Checksum = Dudetm_log.Checksum

type t = {
  nvm : Nvm.t;
  base : int;  (* directory base on the device *)
  n : int;  (* number of entries *)
  extent : bytes;  (* scratch: the extent being checksummed *)
}

let n_extents t = t.n

let slot_off t i = t.base + (i * 8)

let compute_latest t i =
  Nvm.load_into t.nvm (i * Config.crc_extent) t.extent;
  Checksum.crc32_bytes t.extent

let compute_persisted t i =
  Nvm.persisted_into t.nvm (i * Config.crc_extent) t.extent;
  Checksum.crc32_bytes t.extent

let stored_crc_persisted t i =
  Int64.to_int32 (Nvm.persisted_u64 t.nvm (slot_off t i))

let set_slot t i crc = Nvm.store_u64 t.nvm (slot_off t i) (Int64.of_int32 crc)

let update t extents =
  match extents with
  | [] -> ()
  | _ ->
    List.iter (fun i -> set_slot t i (compute_latest t i)) extents;
    Nvm.persist_ranges t.nvm (List.map (fun i -> (slot_off t i, 8)) extents)

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
