module Nvm = Dudetm_nvm.Nvm
module Checksum = Dudetm_log.Checksum

type t = {
  nvm : Nvm.t;
  base : int;
  capacity : int;
  mutable lines : int list;  (* cached copy, ascending *)
}

let magic = 0x4244554445424144L  (* "BDUDEBAD" *)

(* On-device image: magic u64 | count u64 | line[capacity] u64 | crc u64,
   CRC over everything before it. *)
let image_size capacity = (3 + capacity) * 8

let encode t =
  let b = Bytes.make (image_size t.capacity) '\000' in
  Bytes.set_int64_le b 0 magic;
  Bytes.set_int64_le b 8 (Int64.of_int (List.length t.lines));
  List.iteri (fun i l -> Bytes.set_int64_le b (16 + (i * 8)) (Int64.of_int l)) t.lines;
  let crc_off = Bytes.length b - 8 in
  Bytes.set_int64_le b crc_off (Int64.of_int32 (Checksum.crc32 b 0 crc_off));
  b

let persist_table t =
  let b = encode t in
  Nvm.store_bytes t.nvm t.base b;
  Nvm.persist t.nvm ~off:t.base ~len:(Bytes.length b)

let format nvm cfg =
  let t =
    { nvm; base = Config.badline_base cfg; capacity = Config.badline_capacity; lines = [] }
  in
  persist_table t;
  t

(* A corrupt or poisoned table reformats empty: losing remap entries only
   costs future re-detection of the stuck lines, never data. *)
let attach nvm cfg =
  let base = Config.badline_base cfg in
  let capacity = Config.badline_capacity in
  let sz = image_size capacity in
  match Nvm.persisted_bytes nvm base sz with
  | exception Nvm.Media_error _ -> (format nvm cfg, false)
  | b ->
    let crc_off = sz - 8 in
    if
      Bytes.get_int64_le b 0 <> magic
      || Int64.to_int32 (Bytes.get_int64_le b crc_off) <> Checksum.crc32 b 0 crc_off
    then (format nvm cfg, false)
    else begin
      let n = Int64.to_int (Bytes.get_int64_le b 8) in
      if n < 0 || n > capacity then (format nvm cfg, false)
      else begin
        let lines = List.init n (fun i -> Int64.to_int (Bytes.get_int64_le b (16 + (i * 8)))) in
        ({ nvm; base; capacity; lines = List.sort compare lines }, true)
      end
    end

let mem t l = List.mem l t.lines

let lines t = t.lines

let count t = List.length t.lines

let capacity t = t.capacity

let full t = count t >= t.capacity

let add t l =
  if mem t l then true
  else if full t then false
  else begin
    t.lines <- List.sort compare (l :: t.lines);
    persist_table t;
    true
  end
