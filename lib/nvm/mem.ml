type t = Bytes.t

let create size =
  if size < 0 then invalid_arg "Mem.create: negative size";
  Bytes.make size '\000'

let size = Bytes.length

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

let get_sub t off b ~pos ~len = Bytes.blit t off b pos len

let set_sub t off b ~pos ~len = Bytes.blit b pos t off len

let blit ~src ~src_off ~dst ~dst_off ~len = Bytes.blit src src_off dst dst_off len
