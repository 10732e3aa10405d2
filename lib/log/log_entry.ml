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

let encode_list entries =
  let total = List.fold_left (fun acc e -> acc + encoded_size e) 0 entries in
  let buf = Bytes.create total in
  let pos = List.fold_left (fun pos e -> encode_into buf pos e) 0 entries in
  assert (pos = total);
  buf

let decode_list buf =
  let n = Bytes.length buf in
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
  go 0 []

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

let frame_payload ?compressed body =
  match compressed with
  | Some comp when Bytes.length comp < Bytes.length body ->
    Bytes.cat (Bytes.make 1 flag_compressed) comp
  | Some _ | None -> Bytes.cat (Bytes.make 1 flag_plain) body

let encode_payload ?(compress = false) entries =
  let body = encode_list entries in
  frame_payload ?compressed:(if compress then Some (Lz.compress body) else None) body

let decode_payload payload =
  if Bytes.length payload < 1 then invalid_arg "Log_entry.decode_payload: empty payload";
  let body = Bytes.sub payload 1 (Bytes.length payload - 1) in
  match Bytes.get payload 0 with
  | c when c = flag_plain -> decode_list body
  | c when c = flag_compressed -> decode_list (Lz.decompress body)
  | c -> invalid_arg (Printf.sprintf "Log_entry.decode_payload: bad flag %C" c)
