type t =
  | Write of { addr : int; value : int64 }
  | Alloc of { off : int; len : int }
  | Free of { off : int; len : int }
  | Tx_end of { tid : int }
  | Cross of { gtid : int; mask : int; tid : int }

let encoded_size = function
  | Write _ -> 17
  | Alloc _ | Free _ -> 17
  | Tx_end _ -> 9
  | Cross _ -> 25

let encode_write buf pos ~addr ~value =
  Bytes.set buf pos 'W';
  Bytes.set_int64_le buf (pos + 1) (Int64.of_int addr);
  Bytes.set_int64_le buf (pos + 9) value;
  pos + 17

let encode_into buf pos = function
  | Write { addr; value } -> encode_write buf pos ~addr ~value
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

(* Reading an encoded body in place: the tag of the entry at [pos], its
   size, and its 8-byte fields. *)
type tag = Write_tag | Alloc_tag | Free_tag | Tx_end_tag | Cross_tag

let tag_size = function
  | Write_tag | Alloc_tag | Free_tag -> 17
  | Tx_end_tag -> 9
  | Cross_tag -> 25

let tag_at buf pos ~stop =
  let tag =
    match Bytes.get buf pos with
    | 'W' -> Write_tag
    | 'A' -> Alloc_tag
    | 'F' -> Free_tag
    | 'E' -> Tx_end_tag
    | 'X' -> Cross_tag
    | c -> invalid_arg (Printf.sprintf "Log_entry.decode_list: bad tag %C" c)
  in
  if pos + tag_size tag > stop then
    invalid_arg
      ("Log_entry.decode_list: truncated "
      ^
      match tag with
      | Write_tag -> "Write"
      | Alloc_tag -> "Alloc"
      | Free_tag -> "Free"
      | Tx_end_tag -> "Tx_end"
      | Cross_tag -> "Cross");
  tag

let field_pos pos i = pos + 1 + (8 * i)

let field buf pos i = Int64.to_int (Bytes.get_int64_le buf (field_pos pos i))

let entry_at buf pos = function
  | Write_tag -> Write { addr = field buf pos 0; value = Bytes.get_int64_le buf (field_pos pos 1) }
  | Alloc_tag -> Alloc { off = field buf pos 0; len = field buf pos 1 }
  | Free_tag -> Free { off = field buf pos 0; len = field buf pos 1 }
  | Tx_end_tag -> Tx_end { tid = field buf pos 0 }
  | Cross_tag -> Cross { gtid = field buf pos 0; mask = field buf pos 1; tid = field buf pos 2 }

(* Decode the entries in [buf]'s bytes [\[pos, n)]. *)
let decode_range buf pos n =
  let rec go pos acc =
    if pos = n then List.rev acc
    else
      let tag = tag_at buf pos ~stop:n in
      go (pos + tag_size tag) (entry_at buf pos tag :: acc)
  in
  go pos []

(* Record-payload framing shared by the engine's Persist step and every
   reader of persisted records (recovery, scrub): one flag byte marking the
   body as plain or LZ-compressed, then the serialized entries. *)
let flag_plain = 'P'

let flag_compressed = 'C'

let plain_payload len =
  let buf = Bytes.create (1 + len) in
  Bytes.set buf 0 flag_plain;
  buf

(* A plain payload is built in one buffer: the flag byte, then the
   entries encoded straight after it. *)
let encode_plain entries =
  let buf = plain_payload (list_size entries) in
  let pos = encode_from buf 1 entries in
  assert (pos = Bytes.length buf);
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

let is_plain b pos = Bytes.get b pos = flag_plain

let plain_body payload =
  let n = Bytes.length payload in
  if n < 1 then invalid_arg "Log_entry.decode_payload: empty payload";
  match Bytes.get payload 0 with
  | c when c = flag_plain -> (payload, 1)
  | c when c = flag_compressed -> (Lz.decompress ~pos:1 ~len:(n - 1) payload, 0)
  | c -> invalid_arg (Printf.sprintf "Log_entry.decode_payload: bad flag %C" c)

let decode_payload payload =
  let body, pos = plain_body payload in
  decode_range body pos (Bytes.length body)
