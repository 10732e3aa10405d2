let min_match = 4

let hash_bits = 14

let hash4 b i =
  let v =
    Char.code (Bytes.get b i)
    lor (Char.code (Bytes.get b (i + 1)) lsl 8)
    lor (Char.code (Bytes.get b (i + 2)) lsl 16)
    lor (Char.code (Bytes.get b (i + 3)) lsl 24)
  in
  (v * 2654435761) lsr (32 - hash_bits) land ((1 lsl hash_bits) - 1)

(* Growable output buffer. *)
module Out = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create n = { buf = Bytes.create (max 16 n); len = 0 }

  let ensure t extra =
    if t.len + extra > Bytes.length t.buf then begin
      let ncap = max (t.len + extra) (2 * Bytes.length t.buf) in
      let nb = Bytes.create ncap in
      Bytes.blit t.buf 0 nb 0 t.len;
      t.buf <- nb
    end

  let byte t v =
    ensure t 1;
    Bytes.set t.buf t.len (Char.chr (v land 0xff));
    t.len <- t.len + 1

  let blit t src off len =
    ensure t len;
    Bytes.blit src off t.buf t.len len;
    t.len <- t.len + len

  let contents t = Bytes.sub t.buf 0 t.len
end

let emit_len out n =
  (* Extension chain for a nibble that saturated at 15. *)
  let rec go n = if n >= 255 then (Out.byte out 255; go (n - 255)) else Out.byte out n in
  go n

let emit_sequence out src ~lit_off ~lit_len ~match_off ~match_len =
  let lit_nib = if lit_len >= 15 then 15 else lit_len in
  let mat_nib =
    if match_len = 0 then 0
    else if match_len - min_match >= 15 then 15
    else match_len - min_match
  in
  Out.byte out ((lit_nib lsl 4) lor mat_nib);
  if lit_nib = 15 then emit_len out (lit_len - 15);
  Out.blit out src lit_off lit_len;
  if match_len > 0 then begin
    Out.byte out (match_off land 0xff);
    Out.byte out ((match_off lsr 8) land 0xff);
    if mat_nib = 15 then emit_len out (match_len - min_match - 15)
  end

let compress ?(pos = 0) ?len src =
  let len = match len with Some l -> l | None -> Bytes.length src - pos in
  let n = pos + len in
  let out = Out.create (len / 2) in
  if len = 0 then Bytes.create 0
  else begin
    let table = Array.make (1 lsl hash_bits) (-1) in
    let anchor = ref pos in
    let i = ref pos in
    (* The last [min_match] bytes can never start a match. *)
    let limit = n - min_match in
    while !i <= limit do
      let h = hash4 src !i in
      let cand = table.(h) in
      table.(h) <- !i;
      let offset = !i - cand in
      if
        cand >= 0 && offset <= 0xffff
        && Bytes.get src cand = Bytes.get src !i
        && Bytes.get src (cand + 1) = Bytes.get src (!i + 1)
        && Bytes.get src (cand + 2) = Bytes.get src (!i + 2)
        && Bytes.get src (cand + 3) = Bytes.get src (!i + 3)
      then begin
        let m = ref min_match in
        while !i + !m < n && Bytes.get src (cand + !m) = Bytes.get src (!i + !m) do
          incr m
        done;
        emit_sequence out src ~lit_off:!anchor ~lit_len:(!i - !anchor) ~match_off:offset
          ~match_len:!m;
        i := !i + !m;
        anchor := !i
      end
      else incr i
    done;
    if !anchor < n then
      emit_sequence out src ~lit_off:!anchor ~lit_len:(n - !anchor) ~match_off:0 ~match_len:0;
    Out.contents out
  end

let decompress ?(pos = 0) ?len src =
  let len = match len with Some l -> l | None -> Bytes.length src - pos in
  let n = pos + len in
  let out = Out.create (2 * len) in
  let pos = ref pos in
  let byte () =
    if !pos >= n then invalid_arg "Lz.decompress: truncated input";
    let c = Char.code (Bytes.get src !pos) in
    incr pos;
    c
  in
  let ext_len base =
    if base < 15 then base
    else begin
      let total = ref base in
      let rec go () =
        let b = byte () in
        total := !total + b;
        if b = 255 then go ()
      in
      go ();
      !total
    end
  in
  while !pos < n do
    let token = byte () in
    let lit_len = ext_len (token lsr 4) in
    if !pos + lit_len > n then invalid_arg "Lz.decompress: truncated literals";
    Out.blit out src !pos lit_len;
    pos := !pos + lit_len;
    if !pos < n then begin
      let lo = byte () in
      let hi = byte () in
      let offset = lo lor (hi lsl 8) in
      if offset = 0 || offset > out.Out.len then invalid_arg "Lz.decompress: bad offset";
      let match_len = ext_len (token land 0xf) + min_match in
      (* Byte-by-byte copy: matches may overlap their own output. *)
      for _ = 1 to match_len do
        let b = Bytes.get out.Out.buf (out.Out.len - offset) in
        Out.byte out (Char.code b)
      done
    end
  done;
  Out.contents out

let ratio b =
  let n = Bytes.length b in
  if n = 0 then 0.0
  else 1.0 -. (float_of_int (Bytes.length (compress b)) /. float_of_int n)
