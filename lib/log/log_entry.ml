type t =
  | Write of { addr : int; value : int64 }
  | Alloc of { off : int; len : int }
  | Free of { off : int; len : int }
  | Tx_end of { tid : int }
  | Cross of { gtid : int; mask : int; tid : int }

let pp ppf = function
  | Write { addr; value } -> Format.fprintf ppf "W[0x%x]=%Ld" addr value
  | Alloc { off; len } -> Format.fprintf ppf "A[0x%x,+%d]" off len
  | Free { off; len } -> Format.fprintf ppf "F[0x%x,+%d]" off len
  | Tx_end { tid } -> Format.fprintf ppf "End(%d)" tid
  | Cross { gtid; mask; tid } -> Format.fprintf ppf "X(g%d,m0x%x,t%d)" gtid mask tid

let equal a b = a = b

let encoded_size = function
  | Write _ -> 17
  | Alloc _ | Free _ -> 17
  | Tx_end _ -> 9
  | Cross _ -> 25

let encode_into buf pos = function
  | Write { addr; value } ->
    Bytes.set buf pos 'W';
    Bytes.set_int64_le buf (pos + 1) (Int64.of_int addr);
    Bytes.set_int64_le buf (pos + 9) value;
    pos + 17
  | Alloc { off; len } ->
    Bytes.set buf pos 'A';
    Bytes.set_int64_le buf (pos + 1) (Int64.of_int off);
    Bytes.set_int64_le buf (pos + 9) (Int64.of_int len);
    pos + 17
  | Free { off; len } ->
    Bytes.set buf pos 'F';
    Bytes.set_int64_le buf (pos + 1) (Int64.of_int off);
    Bytes.set_int64_le buf (pos + 9) (Int64.of_int len);
    pos + 17
  | Tx_end { tid } ->
    Bytes.set buf pos 'E';
    Bytes.set_int64_le buf (pos + 1) (Int64.of_int tid);
    pos + 9
  | Cross { gtid; mask; tid } ->
    Bytes.set buf pos 'X';
    Bytes.set_int64_le buf (pos + 1) (Int64.of_int gtid);
    Bytes.set_int64_le buf (pos + 9) (Int64.of_int mask);
    Bytes.set_int64_le buf (pos + 17) (Int64.of_int tid);
    pos + 25

let rec encode_from buf pos = function
  | [] -> pos
  | e :: rest -> encode_from buf (encode_into buf pos e) rest

let list_size entries = List.fold_left (fun acc e -> acc + encoded_size e) 0 entries

let encode_list entries =
  let total = list_size entries in
  let buf = Bytes.create total in
  let pos = encode_from buf 0 entries in
  assert (pos = total);
  buf

(* Decode the entries in [buf]'s bytes [\[pos, n)]. *)
let decode_range buf pos n =
  let u64 pos = Int64.to_int (Bytes.get_int64_le buf pos) in
  let rec go pos acc =
    if pos = n then List.rev acc
    else if pos > n then invalid_arg "Log_entry.decode_list: truncated entry"
    else
      match Bytes.get buf pos with
      | 'W' ->
        if pos + 17 > n then invalid_arg "Log_entry.decode_list: truncated Write";
        go (pos + 17) (Write { addr = u64 (pos + 1); value = Bytes.get_int64_le buf (pos + 9) } :: acc)
      | 'A' ->
        if pos + 17 > n then invalid_arg "Log_entry.decode_list: truncated Alloc";
        go (pos + 17) (Alloc { off = u64 (pos + 1); len = u64 (pos + 9) } :: acc)
      | 'F' ->
        if pos + 17 > n then invalid_arg "Log_entry.decode_list: truncated Free";
        go (pos + 17) (Free { off = u64 (pos + 1); len = u64 (pos + 9) } :: acc)
      | 'E' ->
        if pos + 9 > n then invalid_arg "Log_entry.decode_list: truncated Tx_end";
        go (pos + 9) (Tx_end { tid = u64 (pos + 1) } :: acc)
      | 'X' ->
        if pos + 25 > n then invalid_arg "Log_entry.decode_list: truncated Cross";
        go (pos + 25)
          (Cross { gtid = u64 (pos + 1); mask = u64 (pos + 9); tid = u64 (pos + 17) } :: acc)
      | c -> invalid_arg (Printf.sprintf "Log_entry.decode_list: bad tag %C" c)
  in
  go pos []

let decode_list buf = decode_range buf 0 (Bytes.length buf)

let tids entries =
  List.filter_map (function Tx_end { tid } -> Some tid | _ -> None) entries

let cross_seals entries =
  List.filter_map
    (function Cross { gtid; mask; tid } -> Some (gtid, mask, tid) | _ -> None)
    entries

(* Record-payload framing shared by the engine's Persist step and every
   reader of persisted records (recovery, scrub): one flag byte marking the
   body as plain or LZ-compressed, then the serialized entries. *)
let flag_plain = 'P'

let flag_compressed = 'C'

(* A plain payload is built in one buffer: the flag byte, then the
   entries encoded straight after it. *)
let encode_plain entries =
  let total = 1 + list_size entries in
  let buf = Bytes.create total in
  Bytes.set buf 0 flag_plain;
  let pos = encode_from buf 1 entries in
  assert (pos = total);
  buf

let frame_compressed plain comp =
  if Bytes.length comp < Bytes.length plain - 1 then begin
    let buf = Bytes.create (1 + Bytes.length comp) in
    Bytes.set buf 0 flag_compressed;
    Bytes.blit comp 0 buf 1 (Bytes.length comp);
    buf
  end
  else plain

let encode_payload ?(compress = false) entries =
  let plain = encode_plain entries in
  if not compress then plain
  else frame_compressed plain (Lz.compress ~pos:1 ~len:(Bytes.length plain - 1) plain)

let decode_payload payload =
  let n = Bytes.length payload in
  if n < 1 then invalid_arg "Log_entry.decode_payload: empty payload";
  match Bytes.get payload 0 with
  | c when c = flag_plain -> decode_range payload 1 n
  | c when c = flag_compressed -> decode_list (Lz.decompress ~pos:1 ~len:(n - 1) payload)
  | c -> invalid_arg (Printf.sprintf "Log_entry.decode_payload: bad flag %C" c)
