module Nvm = Dudetm_nvm.Nvm
module Image = Dudetm_log.Sealed.Image

type t = {
  nvm : Nvm.t;
  base : int;
  capacity : int;
  mutable lines : int list;  (* cached copy, ascending *)
}

let magic = 0x4244554445424144L  (* "BDUDEBAD" *)

(* On-device image: the Sealed.Image [magic | count | line[capacity] |
   crc], (3 + capacity) * 8 bytes; unused line words are zero. *)
let persist_table t =
  let b = Bytes.make (8 * (3 + t.capacity)) '\000' in
  Bytes.set_int64_le b 0 magic;
  Bytes.set_int64_le b 8 (Int64.of_int (List.length t.lines));
  List.iteri (fun i l -> Bytes.set_int64_le b (8 * (2 + i)) (Int64.of_int l)) t.lines;
  Image.write t.nvm ~off:t.base b

let format nvm cfg =
  let t =
    { nvm; base = Config.badline_base cfg; capacity = Config.badline_capacity; lines = [] }
  in
  persist_table t;
  t

(* A corrupt or poisoned table reformats empty: losing remap entries only
   costs future re-detection of the stuck lines, never data.  The table is
   read from the media image, not the cache. *)
let attach nvm cfg =
  let base = Config.badline_base cfg in
  let capacity = Config.badline_capacity in
  match Image.read ~persisted:true nvm ~off:base ~words:(2 + capacity) with
  | Some w when w.(0) = magic && w.(1) >= 0L && w.(1) <= Int64.of_int capacity ->
    let lines = List.init (Int64.to_int w.(1)) (fun i -> Int64.to_int w.(2 + i)) in
    ({ nvm; base; capacity; lines = List.sort compare lines }, true)
  | _ -> (format nvm cfg, false)

let mem t l = List.mem l t.lines

let lines t = t.lines

let count t = List.length t.lines

let full t = count t >= t.capacity

let add t l =
  if mem t l then true
  else if full t then false
  else begin
    t.lines <- List.sort compare (l :: t.lines);
    persist_table t;
    true
  end
