module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Trace = Dudetm_trace.Trace

type t = {
  nvm : Nvm.t;
  base : int;
  dcap : int;  (* data-area capacity in bytes *)
  mutable head : int;  (* monotone byte offsets into the data area *)
  mutable tail : int;
  mutable head_seq : int;  (* seq of the record at [head] *)
  mutable seq : int;  (* seq of the next record to append *)
  hdr : bytes;  (* [append]'s header scratch (len, seq, crc), a scan's CRC scratch *)
  himg : bytes;  (* [persist_header]'s image scratch *)
  space : Sched.cond;  (* [recycle_to] freed ring space *)
}

type record = { seq : int; payload : bytes; end_off : int }

type scan = {
  records : record list;
  corrupted_records : int;
  quarantined_lines : int;
  header_lost : bool;
}

let header_size = 64

let record_overhead = 24  (* len u64, seq u64, crc u64 *)

let magic = 0x44554445504C4F47L  (* "DUDEPLOG" *)

let data_base t = t.base + header_size

(* Wrapped access: a record may straddle the end of the data area.
   Stores [b]'s bytes [\[pos, pos + len)] at monotone offset [off]. *)
let store_wrapped t off b ~pos ~len =
  let s = off mod t.dcap in
  if s + len <= t.dcap then Nvm.store_sub t.nvm (data_base t + s) b ~pos ~len
  else begin
    let first = t.dcap - s in
    Nvm.store_sub t.nvm (data_base t + s) b ~pos ~len:first;
    Nvm.store_sub t.nvm (data_base t) b ~pos:(pos + first) ~len:(len - first)
  end

let persist_wrapped t off len =
  let s = off mod t.dcap in
  if s + len <= t.dcap then Nvm.persist t.nvm ~off:(data_base t + s) ~len
  else begin
    let first = t.dcap - s in
    Nvm.persist t.nvm ~off:(data_base t + s) ~len:first;
    Nvm.persist t.nvm ~off:(data_base t) ~len:(len - first)
  end

(* Header: the Sealed.Image [magic | head | head_seq | crc], 32 bytes,
   rewritten at every recycle — the CRC lets recovery distinguish a
   corrupted header from an unformatted region. *)
let persist_header t =
  Bytes.set_int64_le t.himg 0 magic;
  Bytes.set_int64_le t.himg 8 (Int64.of_int t.head);
  Bytes.set_int64_le t.himg 16 (Int64.of_int t.head_seq);
  Sealed.Image.write t.nvm ~off:t.base t.himg

let make nvm ~base ~dcap ~head ~head_seq =
  {
    nvm;
    base;
    dcap;
    head;
    tail = head;
    head_seq;
    seq = head_seq;
    hdr = Bytes.create record_overhead;
    himg = Bytes.create 32;
    space = Sched.cond ();
  }

let format nvm ~base ~size =
  if size <= header_size + record_overhead then invalid_arg "Plog.format: region too small";
  let t = make nvm ~base ~dcap:(size - header_size) ~head:0 ~head_seq:0 in
  persist_header t;
  t

(* Encode [len] and [seq] into bytes 0..16 of [frame] and return the
   record CRC: those 16 bytes checksummed in place, chained over the
   payload, [b]'s bytes [\[pos, pos + len)].  On a frame read back from
   the ring this re-encodes the decoded fields, so a flip of bit 63 (which
   [Int64.to_int] drops) checksums as the decoded value. *)
let frame_crc frame ~seq b ~pos ~len =
  Bytes.set_int64_le frame 0 (Int64.of_int len);
  Bytes.set_int64_le frame 8 (Int64.of_int seq);
  Checksum.chain (Checksum.crc32 frame 0 16) b pos len

(* How far past a corrupted record the scan searches for the next valid
   frame, in records: bounds the seq gap a resync will accept so stale
   frames from long-dead laps are never mistaken for live records. *)
let max_resync_gap = 64

(* The data area as a scan reads it, once: [img] holds it twice over, so a
   frame that wraps the ring end is contiguous at its slot, and [bad] lists
   the slot ranges [\[lo, hi)] where a load raises (poisoned clean lines),
   which the copy holds as zeroes.  A scan writes nothing, so each verdict
   taken from the copy is the one a direct read of the ring would give. *)
type area = { img : bytes; bad : (int * int) list }

let read_area t =
  let dcap = t.dcap and db = data_base t in
  let img = Bytes.create (2 * dcap) in
  let bad =
    try
      Nvm.load_sub t.nvm db img ~pos:0 ~len:dcap;
      []
    with Nvm.Media_error _ ->
      let ls = Nvm.line_size t.nvm in
      let rec lines lo bad =
        if lo >= dcap then bad
        else
          let hi = min dcap ((((db + lo) / ls) + 1) * ls - db) in
          lines hi
            (match Nvm.load_sub t.nvm (db + lo) img ~pos:lo ~len:(hi - lo) with
            | () -> bad
            | exception Nvm.Media_error _ ->
              Bytes.fill img lo (hi - lo) '\000';
              (lo, hi) :: bad)
      in
      lines 0 []
  in
  Bytes.blit img 0 img dcap dcap;
  { img; bad }

let field a s = Int64.to_int (Bytes.get_int64_le a.img s)

(* Whether the frame at slot [s], whose fields read [len] and [seq],
   loads without a media error and matches its stored CRC: the part of
   {!valid} the header-loss salvage shares. *)
let sealed t a s ~len ~seq =
  let e = s + record_overhead + len in
  List.for_all
    (fun (lo, hi) -> (e <= lo || hi <= s) && (e <= lo + t.dcap || hi + t.dcap <= s))
    a.bad
  && frame_crc t.hdr ~seq a.img ~pos:(s + record_overhead) ~len = field a (s + 16) land 0xffffffff

(* The one validity check of a frame: the frame at slot [s], [scanned]
   bytes past the head, is a record when its length fits the remaining
   ring space, its seq sits in [\[min_seq, min_seq + max_resync_gap]] and
   it is sealed. *)
let valid t a ~s ~scanned ~min_seq =
  let len = field a s and seq = field a (s + 8) in
  len >= 0
  && scanned + record_overhead + len <= t.dcap
  && seq >= min_seq
  && seq <= min_seq + max_resync_gap
  && sealed t a s ~len ~seq

(* The first monotone offset from [off] to [head + dcap - record_overhead]
   that holds a valid frame, searched byte by byte.  Its slot [s] is
   carried along unwrapped: every frame the search can accept still ends
   inside the doubled copy. *)
let rec resync t a ~off ~s ~min_seq =
  if off - t.head + record_overhead > t.dcap then None
  else if valid t a ~s ~scanned:(off - t.head) ~min_seq then Some off
  else resync t a ~off:(off + 1) ~s:(s + 1) ~min_seq

(* Distinct device lines covered by monotone data-area range [lo, hi). *)
let lines_of_range t ~lo ~hi acc =
  let ls = Nvm.line_size t.nvm in
  let add acc addr_lo addr_hi =
    let rec go l acc = if l * ls >= addr_hi then acc else go (l + 1) (l :: acc) in
    go (addr_lo / ls) acc
  in
  let len = hi - lo in
  if len <= 0 then acc
  else begin
    let s = lo mod t.dcap in
    if s + len <= t.dcap then add acc (data_base t + s) (data_base t + s + len)
    else
      let first = t.dcap - s in
      add (add acc (data_base t + s) (data_base t + s + first)) (data_base t) (data_base t + len - first)
  end

let read_header nvm base =
  match Sealed.Image.read nvm ~off:base ~words:3 with
  | Some [| m; head; head_seq |] when m = magic -> Some (Int64.to_int head, Int64.to_int head_seq)
  | _ -> None

(* A lost header loses the head cursor, and with it every record in the
   ring.  To keep the ring usable we reformat it — but new appends must
   never collide with stale, still-intact frames from before the loss, so
   the fresh seq starts past the largest plausible seq found anywhere in
   the data area. *)
let salvage_next_seq t a =
  let best = ref 0 in
  for s = 0 to t.dcap - record_overhead do
    let len = field a s and seq = field a (s + 8) in
    if len >= 0 && len <= t.dcap - record_overhead && seq > !best && sealed t a s ~len ~seq then
      best := seq
  done;
  !best + 1

let attach_scan nvm ~base ~size =
  if size <= header_size + record_overhead then invalid_arg "Plog.attach: region too small";
  let dcap = size - header_size in
  match read_header nvm base with
  | None ->
    (* Header corrupt or poisoned: every record is unreachable.  Reformat
       with a seq jump past any stale frame so the ring stays usable. *)
    let t = make nvm ~base ~dcap ~head:0 ~head_seq:0 in
    let next = salvage_next_seq t (read_area t) in
    t.head_seq <- next;
    t.seq <- next;
    persist_header t;
    (t, { records = []; corrupted_records = 1; quarantined_lines = 0; header_lost = true })
  | Some (head, head_seq) ->
    let t = make nvm ~base ~dcap ~head ~head_seq in
    let a = read_area t in
    let records = ref [] and corrupted = ref 0 and qlines = ref [] in
    let take off =
      let s = off mod dcap in
      let len = field a s and seq = field a (s + 8) in
      let end_off = off + record_overhead + len in
      records := { seq; payload = Bytes.sub a.img (s + record_overhead) len; end_off } :: !records;
      t.tail <- end_off;
      t.seq <- seq + 1
    in
    let rec walk () =
      if valid t a ~s:(t.tail mod dcap) ~scanned:(t.tail - head) ~min_seq:t.seq then begin
        take t.tail;
        walk ()
      end
      else
        (* Either the torn tail of the ring, or a corrupted record
           mid-ring.  Search forward for the next valid frame with a later
           seq; finding one proves the invalid bytes were a once-sealed
           record (or records) damaged in place — quarantine the gap. *)
        let from = t.tail + 1 in
        match resync t a ~off:from ~s:(from mod dcap) ~min_seq:(t.seq + 1) with
        | None -> ()
        | Some at ->
          corrupted := !corrupted + (field a ((at mod dcap) + 8) - t.seq);
          qlines := lines_of_range t ~lo:t.tail ~hi:at !qlines;
          take at;
          walk ()
    in
    walk ();
    ( t,
      {
        records = List.rev !records;
        corrupted_records = !corrupted;
        quarantined_lines = List.length (List.sort_uniq Int.compare !qlines);
        header_lost = false;
      } )

let data_capacity t = t.dcap

let used_space t = t.tail - t.head

let free_space t = t.dcap - used_space t

let append ?(persist = true) t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Plog.append: bad range";
  let total = record_overhead + len in
  if total > free_space t then invalid_arg "Plog.append: no space";
  (* The header and the payload go straight into the ring: the same bytes,
     lines and CRC as one staged [header | payload] frame, without it. *)
  let crc = frame_crc t.hdr ~seq:t.seq b ~pos ~len in
  Checksum.set_slot t.hdr 16 crc;
  store_wrapped t t.tail t.hdr ~pos:0 ~len:record_overhead;
  store_wrapped t (t.tail + record_overhead) b ~pos ~len;
  (* The CRC seals the record: one persist ordering makes the whole group
     of transactions durable, torn writes fail validation on recovery.
     [persist:false] skips that fence and exists only for the seeded
     checker-validation mutant (Inject.Early_durable_publish). *)
  if persist then persist_wrapped t t.tail total;
  t.tail <- t.tail + total;
  t.seq <- t.seq + 1;
  Trace.instant ~cat:"plog" "append" total;
  Trace.counter ~cat:"plog" "used" (used_space t)

let recycle_to t ~end_off ~next_seq =
  if end_off < t.head || end_off > t.tail then invalid_arg "Plog.recycle_to: bad offset";
  t.head <- end_off;
  t.head_seq <- next_seq;
  persist_header t;
  Sched.signal t.space;
  Trace.instant ~cat:"plog" "recycle" end_off;
  Trace.counter ~cat:"plog" "used" (used_space t)

let space_cond t = t.space

let tail_off t = t.tail

let next_seq (t : t) = t.seq
