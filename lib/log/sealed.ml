module Nvm = Dudetm_nvm.Nvm

(* Write [words] into [b] from byte [at], seal everything before the crc
   word that follows them, then store and persist [b] at [off]. *)
let seal_and_persist nvm ~off b ~at words =
  for i = 0 to Array.length words - 1 do
    Bytes.set_int64_le b (at + (8 * i)) words.(i)
  done;
  let crc_off = Bytes.length b - 8 in
  Bytes.set_int64_le b crc_off (Int64.of_int32 (Checksum.crc32 b 0 crc_off));
  Nvm.store_bytes nvm off b;
  Nvm.persist nvm ~off ~len:(Bytes.length b)

let sealed b =
  let crc_off = Bytes.length b - 8 in
  Int64.to_int32 (Bytes.get_int64_le b crc_off) = Checksum.crc32 b 0 crc_off

let words_of b ~at n = Array.init n (fun i -> Bytes.get_int64_le b (at + (8 * i)))

module Image = struct
  let bytes n = 8 * (n + 1)

  let write nvm ~off words =
    seal_and_persist nvm ~off (Bytes.create (bytes (Array.length words))) ~at:0 words

  let read ?(persisted = false) nvm ~off ~words =
    let load = if persisted then Nvm.persisted_bytes else Nvm.load_bytes in
    match load nvm off (bytes words) with
    | exception Nvm.Media_error _ -> None
    | b -> if sealed b then Some (words_of b ~at:0 words) else None
end

module Twin = struct
  type t = {
    nvm : Nvm.t;
    base : int;
    slot_size : int;
    mutable seq : int;  (* seq of the next write *)
    mutable slot : int;  (* the older slot, 0 or 1 *)
  }

  let bytes n = 24 + (8 * n)

  let max_words ~slot_size = (slot_size - 24) / 8

  let write_slot t slot ~seq words =
    let b = Bytes.create (bytes (Array.length words)) in
    Bytes.set_int64_le b 0 (Int64.of_int seq);
    Bytes.set_int64_le b 8 (Int64.of_int (Array.length words));
    seal_and_persist t.nvm ~off:(t.base + (slot * t.slot_size)) b ~at:16 words

  let read_raw nvm ~off ~slot_size =
    let head = Nvm.load_bytes nvm off 16 in
    let len = Int64.to_int (Bytes.get_int64_le head 8) in
    if len < 0 || len > max_words ~slot_size then None
    else
      let b = Nvm.load_bytes nvm off (bytes len) in
      if sealed b then Some (Int64.to_int (Bytes.get_int64_le b 0), words_of b ~at:16 len)
      else None

  let read nvm ~base ~slot_size slot =
    match read_raw nvm ~off:(base + (slot * slot_size)) ~slot_size with
    | exception Nvm.Media_error _ -> None
    | r -> r

  let write t words =
    if Array.length words > max_words ~slot_size:t.slot_size then
      invalid_arg "Sealed.Twin.write: record exceeds its slot";
    write_slot t t.slot ~seq:t.seq words;
    t.seq <- t.seq + 1;
    t.slot <- 1 - t.slot

  let format nvm ~base ~slot_size words =
    let t = { nvm; base; slot_size; seq = 0; slot = 0 } in
    write t words;
    write t words;
    t

  let attach nvm ~base ~slot_size =
    let newest slot (seq, words) =
      Some ({ nvm; base; slot_size; seq = seq + 1; slot = 1 - slot }, words)
    in
    match (read nvm ~base ~slot_size 0, read nvm ~base ~slot_size 1) with
    | None, None -> None
    | Some r0, None -> newest 0 r0
    | None, Some r1 -> newest 1 r1
    | Some ((q0, _) as r0), Some ((q1, _) as r1) -> if q0 > q1 then newest 0 r0 else newest 1 r1

  let scrub ?(repair = true) nvm ~base ~slot_size =
    let t = { nvm; base; slot_size; seq = 0; slot = 0 } in
    match (read nvm ~base ~slot_size 0, read nvm ~base ~slot_size 1) with
    | Some _, Some _ -> `Ok
    | None, None -> `Fatal
    | _ when not repair -> `Degraded
    | Some (seq, words), None ->
      write_slot t 1 ~seq:(max 0 (seq - 1)) words;
      `Repaired
    | None, Some (seq, words) ->
      write_slot t 0 ~seq:(max 0 (seq - 1)) words;
      `Repaired
end
