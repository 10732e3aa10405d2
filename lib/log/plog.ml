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
  hdr : bytes;  (* [append]'s header scratch: len, seq, crc *)
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

let read_wrapped t off len =
  let s = off mod t.dcap in
  if s + len <= t.dcap then Nvm.load_bytes t.nvm (data_base t + s) len
  else begin
    let first = t.dcap - s in
    let b = Bytes.create len in
    Bytes.blit (Nvm.load_bytes t.nvm (data_base t + s) first) 0 b 0 first;
    Bytes.blit (Nvm.load_bytes t.nvm (data_base t) (len - first)) 0 b first (len - first);
    b
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
  Sealed.Image.write t.nvm ~off:t.base [| magic; Int64.of_int t.head; Int64.of_int t.head_seq |]

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
    space = Sched.cond ();
  }

let format nvm ~base ~size =
  if size <= header_size + record_overhead then invalid_arg "Plog.format: region too small";
  let t = make nvm ~base ~dcap:(size - header_size) ~head:0 ~head_seq:0 in
  persist_header t;
  t

(* Encode [len] and [seq] into bytes 0..16 of [frame] and return the
   record CRC: those 16 bytes checksummed in place, chained over the
   payload.  On a frame read back from the ring this re-encodes the decoded
   fields, so a flip of bit 63 (which [Int64.to_int] drops) checksums as
   the decoded value. *)
let frame_crc frame ~len ~seq payload =
  Bytes.set_int64_le frame 0 (Int64.of_int len);
  Bytes.set_int64_le frame 8 (Int64.of_int seq);
  Checksum.crc32 ~init:(Checksum.crc32 frame 0 16) payload 0 (Bytes.length payload)

(* How far past a corrupted record the scan searches for the next valid
   frame, in records: bounds the seq gap a resync will accept so stale
   frames from long-dead laps are never mistaken for live records. *)
let max_resync_gap = 64

(* A frame [scanned] bytes past the head is plausible when its length fits
   the remaining ring space and its seq sits in [min_seq, min_seq +
   max_resync_gap]. *)
let fields_in_range t ~scanned ~len ~seq ~min_seq =
  len >= 0
  && scanned + record_overhead + len <= t.dcap
  && seq >= min_seq
  && seq <= min_seq + max_resync_gap

(* Validate a candidate frame at monotone offset [off]: its len and seq
   must be in range and the payload CRC must match.  Reads that hit
   poisoned lines count as invalid. *)
let probe_frame t ~off ~min_seq =
  let scanned = off - t.head in
  if scanned + record_overhead > t.dcap then None
  else
    match read_wrapped t off record_overhead with
    | exception Nvm.Media_error _ -> None
    | frame ->
      let len = Int64.to_int (Bytes.get_int64_le frame 0) in
      let seq = Int64.to_int (Bytes.get_int64_le frame 8) in
      let crc = Int64.to_int32 (Bytes.get_int64_le frame 16) in
      if not (fields_in_range t ~scanned ~len ~seq ~min_seq) then None
      else begin
        match read_wrapped t (off + record_overhead) len with
        | exception Nvm.Media_error _ -> None
        | payload ->
          if frame_crc frame ~len ~seq payload <> crc then None
          else Some { seq; payload; end_off = off + record_overhead + len }
      end

(* {!fields_in_range} on the len and seq fields of the frame at data-area
   slot [s], read in place into [fields] (16 bytes) without allocating.
   [false] implies [probe_frame] rejects the frame: a poisoned read here is
   a poisoned frame read, and otherwise both see the same bytes.  The
   caller guarantees [s + 16 <= dcap]. *)
let fields_plausible t fields ~s ~scanned ~min_seq =
  match Nvm.load_into t.nvm (data_base t + s) fields with
  | exception Nvm.Media_error _ -> false
  | () ->
    let len = Int64.to_int (Bytes.get_int64_le fields 0) in
    let seq = Int64.to_int (Bytes.get_int64_le fields 8) in
    fields_in_range t ~scanned ~len ~seq ~min_seq

(* The first valid frame at a monotone offset in [from, head + dcap -
   record_overhead], searched byte by byte.  Most offsets hold payload or
   zeroes, so each is first prechecked with {!fields_plausible}; only an
   offset whose len and seq fields would wrap the ring end skips the
   precheck and takes the full wrapped probe.  Verdicts are those of
   [probe_frame] at every offset. *)
let resync t ~from ~min_seq =
  let limit = t.head + t.dcap - record_overhead in
  let fields = Bytes.create 16 in
  let rec go off s =
    if off > limit then None
    else if s + 16 <= t.dcap && not (fields_plausible t fields ~s ~scanned:(off - t.head) ~min_seq)
    then go (off + 1) (s + 1)
    else
      match probe_frame t ~off ~min_seq with
      | Some r -> Some (off, r)
      | None -> go (off + 1) (if s + 1 = t.dcap then 0 else s + 1)
  in
  go from (from mod t.dcap)

(* Distinct device lines covered by monotone data-area range [lo, hi). *)
let lines_of_range t ~lo ~hi acc =
  let ls = Nvm.line_size t.nvm in
  let add acc addr_lo addr_hi =
    let rec go l acc = if l * ls >= addr_hi then acc else go (l + 1) ((l, ()) :: acc) in
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
let salvage_next_seq t =
  let best = ref 0 in
  for off = 0 to t.dcap - record_overhead do
    match read_wrapped t off record_overhead with
    | exception Nvm.Media_error _ -> ()
    | frame ->
      let len = Int64.to_int (Bytes.get_int64_le frame 0) in
      let seq = Int64.to_int (Bytes.get_int64_le frame 8) in
      let crc = Int64.to_int32 (Bytes.get_int64_le frame 16) in
      if len >= 0 && len <= t.dcap - record_overhead && seq > !best then begin
        match read_wrapped t (off + record_overhead) len with
        | exception Nvm.Media_error _ -> ()
        | payload -> if frame_crc frame ~len ~seq payload = crc then best := seq
      end
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
    let next = salvage_next_seq t in
    t.head_seq <- next;
    t.seq <- next;
    persist_header t;
    (t, { records = []; corrupted_records = 1; quarantined_lines = 0; header_lost = true })
  | Some (head, head_seq) ->
    let t = make nvm ~base ~dcap ~head ~head_seq in
    let records = ref [] in
    let corrupted = ref 0 in
    let qlines = ref [] in
    let continue = ref true in
    while !continue do
      match probe_frame t ~off:t.tail ~min_seq:t.seq with
      | Some r ->
        records := r :: !records;
        t.tail <- r.end_off;
        t.seq <- r.seq + 1
      | None ->
        (* Either the torn tail of the ring, or a corrupted record
           mid-ring.  Search forward for the next valid frame with a later
           seq; finding one proves the invalid bytes were a once-sealed
           record (or records) damaged in place — quarantine the gap. *)
        (match resync t ~from:(t.tail + 1) ~min_seq:(t.seq + 1) with
        | None -> continue := false
        | Some (at, r) ->
          corrupted := !corrupted + (r.seq - t.seq);
          qlines := lines_of_range t ~lo:t.tail ~hi:at !qlines;
          records := r :: !records;
          t.tail <- r.end_off;
          t.seq <- r.seq + 1)
    done;
    let quarantined_lines =
      let h = Hashtbl.create 16 in
      List.iter (fun (l, ()) -> Hashtbl.replace h l ()) !qlines;
      Hashtbl.length h
    in
    ( t,
      {
        records = List.rev !records;
        corrupted_records = !corrupted;
        quarantined_lines;
        header_lost = false;
      } )

let attach nvm ~base ~size =
  (* Refuse an unreadable header WITHOUT the reformatting side effect of
     {!attach_scan}: a caller that wants the strict contract must not find
     the ring silently re-initialized under the raised exception. *)
  if size <= header_size + record_overhead then invalid_arg "Plog.attach: region too small";
  if read_header nvm base = None then invalid_arg "Plog.attach: bad magic";
  let t, scan = attach_scan nvm ~base ~size in
  (t, scan.records)

let data_capacity t = t.dcap

let used_space t = t.tail - t.head

let free_space t = t.dcap - used_space t

let append ?(persist = true) t payload =
  let len = Bytes.length payload in
  let total = record_overhead + len in
  if total > free_space t then invalid_arg "Plog.append: no space";
  (* The header and the payload go straight into the ring: the same bytes,
     lines and CRC as one staged [header | payload] frame, without it. *)
  let crc = frame_crc t.hdr ~len ~seq:t.seq payload in
  Bytes.set_int64_le t.hdr 16 (Int64.of_int32 crc);
  store_wrapped t t.tail t.hdr ~pos:0 ~len:record_overhead;
  store_wrapped t (t.tail + record_overhead) payload ~pos:0 ~len;
  (* The CRC seals the record: one persist ordering makes the whole group
     of transactions durable, torn writes fail validation on recovery.
     [persist:false] skips that fence and exists only for the seeded
     checker-validation mutant (Inject.Early_durable_publish). *)
  if persist then persist_wrapped t t.tail total;
  let r = { seq = t.seq; payload; end_off = t.tail + total } in
  t.tail <- t.tail + total;
  t.seq <- t.seq + 1;
  Trace.instant ~cat:"plog" "append" total;
  Trace.counter ~cat:"plog" "used" (used_space t);
  r

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
