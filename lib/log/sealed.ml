module Nvm = Dudetm_nvm.Nvm

(* Seal the record in [b]'s first [len] bytes — its words, then the crc
   word over every byte before it — and store and persist exactly those
   bytes at [off]. *)
let seal_and_persist nvm ~off b ~len =
  let crc_off = len - 8 in
  Checksum.set_slot b crc_off (Checksum.crc32 b 0 crc_off);
  Nvm.store_sub nvm off b ~pos:0 ~len;
  Nvm.persist nvm ~off ~len

let set_words b ~at words =
  for i = 0 to Array.length words - 1 do
    Bytes.set_int64_le b (at + (8 * i)) words.(i)
  done

let sealed b =
  let crc_off = Bytes.length b - 8 in
  Int64.to_int (Bytes.get_int64_le b crc_off) land 0xffffffff = Checksum.crc32 b 0 crc_off

let words_of b ~at n = Array.init n (fun i -> Bytes.get_int64_le b (at + (8 * i)))

module Image = struct
  let bytes n = 8 * (n + 1)

  let write nvm ~off b = seal_and_persist nvm ~off b ~len:(Bytes.length b)

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
    mutable buf : bytes;  (* the next record, built in place; grows to fit *)
  }

  let bytes n = 24 + (8 * n)

  let max_words ~slot_size = (slot_size - 24) / 8

  let make nvm ~base ~slot_size ~seq ~slot =
    { nvm; base; slot_size; seq; slot; buf = Bytes.empty }

  (* [buf] holds the [n]-word record's words in place: seal them into
     [slot] at [seq] and persist. *)
  let write_slot t slot ~seq n =
    Bytes.set_int64_le t.buf 0 (Int64.of_int seq);
    Bytes.set_int64_le t.buf 8 (Int64.of_int n);
    seal_and_persist t.nvm ~off:(t.base + (slot * t.slot_size)) t.buf ~len:(bytes n)

  (* Grow [buf] to hold an [n]-word record. *)
  let reserve t n =
    if Bytes.length t.buf < bytes n then begin
      let b = Bytes.create (max (bytes n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 b 0 (Bytes.length t.buf);
      t.buf <- b
    end

  let set_word t i v =
    reserve t (i + 1);
    Bytes.set_int64_le t.buf (16 + (8 * i)) (Int64.of_int v)

  let commit t ~words =
    if words > max_words ~slot_size:t.slot_size then
      invalid_arg "Sealed.Twin.write: record exceeds its slot";
    reserve t words;
    write_slot t t.slot ~seq:t.seq words;
    t.seq <- t.seq + 1;
    t.slot <- 1 - t.slot

  let load t words =
    reserve t (Array.length words);
    set_words t.buf ~at:16 words

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
    load t words;
    commit t ~words:(Array.length words)

  let format nvm ~base ~slot_size words =
    let t = make nvm ~base ~slot_size ~seq:0 ~slot:0 in
    write t words;
    write t words;
    t

  let attach nvm ~base ~slot_size =
    let newest slot (seq, words) =
      Some (make nvm ~base ~slot_size ~seq:(seq + 1) ~slot:(1 - slot), words)
    in
    match (read nvm ~base ~slot_size 0, read nvm ~base ~slot_size 1) with
    | None, None -> None
    | Some r0, None -> newest 0 r0
    | None, Some r1 -> newest 1 r1
    | Some ((q0, _) as r0), Some ((q1, _) as r1) -> if q0 > q1 then newest 0 r0 else newest 1 r1

  let scrub ?(repair = true) nvm ~base ~slot_size =
    let t = make nvm ~base ~slot_size ~seq:0 ~slot:0 in
    match (read nvm ~base ~slot_size 0, read nvm ~base ~slot_size 1) with
    | Some _, Some _ -> `Ok
    | None, None -> `Fatal
    | _ when not repair -> `Degraded
    | Some (seq, words), None ->
      load t words;
      write_slot t 1 ~seq:(max 0 (seq - 1)) (Array.length words);
      `Repaired
    | None, Some (seq, words) ->
      load t words;
      write_slot t 0 ~seq:(max 0 (seq - 1)) (Array.length words);
      `Repaired
end
