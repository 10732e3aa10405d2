(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.  Table
   0 is the classic bytewise table; table [k] advances a byte through [k]
   further zero bytes, so one step folds eight input bytes with eight
   independent lookups.  The running CRC is a native [int] in
   [0, 2^32). *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Indices are masked to a byte plus a table base below 2048. *)
let tbl i = Array.unsafe_get tables i

let u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xffffffff

let chain init b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Checksum.crc32";
  let c = ref (lnot init land 0xffffffff) in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor u32 b !i and hi = u32 b (!i + 4) in
    c :=
      tbl ((7 * 256) + (lo land 0xff))
      lxor tbl ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor tbl ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor tbl ((4 * 256) + (lo lsr 24))
      lxor tbl ((3 * 256) + (hi land 0xff))
      lxor tbl ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor tbl (256 + ((hi lsr 16) land 0xff))
      lxor tbl (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := tbl ((!c lxor Char.code (Bytes.get b j)) land 0xff) lxor (!c lsr 8)
  done;
  lnot !c land 0xffffffff

let crc32 b off len = chain 0 b off len

let crc32_bytes b = chain 0 b 0 (Bytes.length b)

let set_slot b off c = Bytes.set_int64_le b off (Int64.of_int32 (Int32.of_int c))
