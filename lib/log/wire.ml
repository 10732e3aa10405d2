(* Frame layout (little-endian):

     [0..3]   CRC-32 over bytes [4..len)
     [4]      kind: 1 = Batch, 2 = Ack, 3 = Watermark
     [5..]    kind-specific fields

   Batch:      seq u64 | lo u64 | hi u64 | acked u64 | plen u32 | payload
   Ack:        seq u64 | durable u64
   Watermark:  acked u64 *)

type t =
  | Batch of { seq : int; lo : int; hi : int; acked : int; payload : bytes }
  | Ack of { seq : int; durable : int }
  | Watermark of { acked : int }

type kind = Invalid | Batch_frame | Ack_frame | Watermark_frame

let kind_batch = 1
let kind_ack = 2
let kind_watermark = 3

let payload_pos = 41

let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)

let get_u64 b off = Int64.to_int (Bytes.get_int64_le b off)

let seal b =
  Bytes.set_int32_le b 0 (Int32.of_int (Checksum.crc32 b 4 (Bytes.length b - 4)));
  b

let encode_batch ~seq ~lo ~hi ~acked payload ~pos ~len =
  let b = Bytes.create (payload_pos + len) in
  Bytes.set b 4 (Char.chr kind_batch);
  set_u64 b 5 seq;
  set_u64 b 13 lo;
  set_u64 b 21 hi;
  set_u64 b 29 acked;
  Bytes.set_int32_le b 37 (Int32.of_int len);
  Bytes.blit payload pos b payload_pos len;
  seal b

let encode_ack ~seq ~durable =
  let b = Bytes.create (4 + 1 + 16) in
  Bytes.set b 4 (Char.chr kind_ack);
  set_u64 b 5 seq;
  set_u64 b 13 durable;
  seal b

let encode_watermark ~acked =
  let b = Bytes.create (4 + 1 + 8) in
  Bytes.set b 4 (Char.chr kind_watermark);
  set_u64 b 5 acked;
  seal b

let encode = function
  | Batch { seq; lo; hi; acked; payload } ->
    encode_batch ~seq ~lo ~hi ~acked payload ~pos:0 ~len:(Bytes.length payload)
  | Ack { seq; durable } -> encode_ack ~seq ~durable
  | Watermark { acked } -> encode_watermark ~acked

let check b =
  let len = Bytes.length b in
  if len < 5 then Invalid
  else if Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff <> Checksum.crc32 b 4 (len - 4)
  then Invalid
  else
    let k = Char.code (Bytes.get b 4) in
    if k = kind_batch then
      if len < payload_pos then Invalid
      else
        let plen = Int32.to_int (Bytes.get_int32_le b 37) in
        if plen < 0 || len <> payload_pos + plen then Invalid else Batch_frame
    else if k = kind_ack then if len <> 21 then Invalid else Ack_frame
    else if k = kind_watermark then if len <> 13 then Invalid else Watermark_frame
    else Invalid

let seq b = get_u64 b 5
let lo b = get_u64 b 13
let hi b = get_u64 b 21
let durable b = get_u64 b 13
let acked b = if Char.code (Bytes.get b 4) = kind_batch then get_u64 b 29 else get_u64 b 5
let payload_len b = Bytes.length b - payload_pos
