type t = Bytes.t

let create size =
  if size < 0 then invalid_arg "Mem.create: negative size";
  Bytes.make size '\000'

let size = Bytes.length

let copy = Bytes.copy

let blit_from ~src t =
  if Bytes.length src <> Bytes.length t then invalid_arg "Mem.blit_from: size mismatch";
  Bytes.blit src 0 t 0 (Bytes.length src)

let check_aligned addr =
  if addr land 7 <> 0 then
    invalid_arg (Printf.sprintf "Mem: unaligned 64-bit access at 0x%x" addr)

let get_u8 t addr = Char.code (Bytes.get t addr)

let set_u8 t addr v = Bytes.set t addr (Char.chr (v land 0xff))

let get_u64 t addr =
  check_aligned addr;
  Bytes.get_int64_le t addr

let set_u64 t addr v =
  check_aligned addr;
  Bytes.set_int64_le t addr v

let get_into t off dst = Bytes.blit t off dst 0 (Bytes.length dst)

let set_bytes t off b = Bytes.blit b 0 t off (Bytes.length b)

let set_sub t off b ~pos ~len = Bytes.blit b pos t off len

let blit ~src ~src_off ~dst ~dst_off ~len = Bytes.blit src src_off dst dst_off len

let fill t off len c = Bytes.fill t off len c
