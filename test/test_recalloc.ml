(* What a record allocates, call by call, on the background path: reading
   a received frame, follower ingest, the ring append, a Reproduce round
   and a checkpoint.

   Like the transaction guards ([Test_txalloc]) each measures one call on
   an unstarted stack outside [Sched.run] (no daemon adds words and
   [Sched.advance] is a no-op), as [Test_plog.allocated] over a loop of
   calls, less what an empty reading counts, per call.  What a record
   keeps is allowed: its replay item (12 words) and queue cell (3).  A
   store that turns a line dirty allocates nothing: the device keeps its
   dirty lines in flat per-line tables. *)

module Config = Dudetm_core.Config
module Crcdir = Dudetm_core.Crcdir
module Engine_state = Dudetm_core.Engine_state
module Persist = Dudetm_core.Persist
module Recovery = Dudetm_core.Recovery
module Reproduce = Dudetm_core.Reproduce
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Log_entry = Dudetm_log.Log_entry
module Plog = Dudetm_log.Plog
module Wire = Dudetm_log.Wire
module Trace = Dudetm_trace.Trace
module E = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let check = Alcotest.check

let per_call n f =
  let loop = Test_plog.allocated (fun () -> for i = 1 to n do f i done) in
  (loop -. Test_plog.allocated ignore) /. float_of_int n

let guard what ~limit words =
  if words > limit then Alcotest.failf "%s: %.1f words allocated (limit %.1f)" what words limit

let item_words = 12.

let queue_cell = 3.

(* An engine state over a freshly formatted device, as recovery hands it
   back: nothing started, no TM behind it. *)
let state cfg =
  let nvm = E.nvm (E.create cfg) in
  let ops =
    { Engine_state.create = (fun ~seed:_ _ -> ()); last_tid = (fun () -> 0); undo = ignore }
  in
  (fst (Recovery.commit ops (Recovery.prepare cfg nvm)), nvm)

(* The serve stacks' engine: combined persist, one ring. *)
let combined = Dudetm_serve.Serve_load.engine_cfg ~workers:2 ()

(* Transaction [tid]'s combined record: its writes (one 8-byte word at
   each address) and its end mark, the primary's frame around it. *)
let frame ~tid addrs =
  let p =
    Log_entry.encode_payload
      (List.map (fun addr -> Log_entry.Write { addr; value = Int64.of_int tid }) addrs
      @ [ Log_entry.Tx_end { tid } ])
  in
  Wire.encode_batch ~seq:(tid - 1) ~lo:tid ~hi:tid ~acked:0 p ~pos:0 ~len:(Bytes.length p)

let ingest s f =
  if not (Persist.ingest_record s f ~pos:Wire.payload_pos ~len:(Wire.payload_len f)) then
    Alcotest.fail "ring full"

(* A received frame is checked and its fields read where they lie.  The
   variant decoder this replaced built the frame, its [Some] and a copy of
   a batch's payload: 16 words for a batch of a 27-byte payload, 8 for an
   ack, 7 for a watermark. *)
let test_frame_read () =
  let b = frame ~tid:5 [ 64 ] in
  let ack = Wire.encode_ack ~seq:4 ~durable:5 and wm = Wire.encode_watermark ~acked:4 in
  let sink = ref 0 in
  let read f =
    match Wire.check f with
    | Wire.Batch_frame ->
      sink := !sink + Wire.seq f + Wire.lo f + Wire.hi f + Wire.acked f + Wire.payload_len f
    | Wire.Ack_frame -> sink := !sink + Wire.seq f + Wire.durable f
    | Wire.Watermark_frame -> sink := !sink + Wire.acked f
    | Wire.Invalid -> Alcotest.fail "a sealed frame was rejected"
  in
  guard "reading a Batch frame" ~limit:0. (per_call 1000 (fun _ -> read b));
  guard "reading an Ack frame" ~limit:0. (per_call 1000 (fun _ -> read ack));
  guard "reading a Watermark frame" ~limit:0. (per_call 1000 (fun _ -> read wm));
  check Alcotest.bool "fields read" true (!sink > 0)

(* Follower ingest of a combined record keeps its item and queue cell and
   appends the payload from the frame itself: 15 words per 27-byte
   record (22.1 while the device kept a [Hashtbl] entry per dirty line).
   Ingesting the same payload
   took 49.1 words (the item list, the CRC's boxes, the ring record, the
   append closure, the drain pace's boxed float), after the 16 of the
   frame's decode. *)
let test_follower_ingest () =
  let n = 200 in
  let frames = Array.init (n + 1) (fun i -> frame ~tid:(i + 1) [ 64 ]) in
  let s, _ = state combined in
  ingest s frames.(0);
  let words = per_call n (fun i -> ingest s frames.(i)) in
  check Alcotest.int "every record durable" (n + 1) s.Engine_state.durable;
  check Alcotest.int "every item queued" (n + 1) (Queue.length s.Engine_state.queues.(0));
  guard "follower ingest of one combined record" ~limit:(item_words +. queue_cell) words

(* The ring append stores the header and the caller's bytes in place and
   returns nothing to allocate.  A 40-byte record took 16.0 words, 12
   beyond its one dirty line: the CRC's boxes and its [~init] option, the
   sign-extended slot word's box, the record returned. *)
let test_plog_append () =
  let nvm = Nvm.create ~charge_time:false Pmem_config.default ~size:65536 in
  let t = Plog.format nvm ~base:0 ~size:65536 in
  let p = Bytes.make 40 'r' in
  Plog.append t p ~pos:0 ~len:40;
  (* 24 + 40 bytes from a line boundary: one line per record. *)
  check Alcotest.int "records start on a line" 0 ((Plog.header_size + Plog.tail_off t) mod 64);
  guard "Plog.append (one record, one line)" ~limit:0.
    (per_call 500 (fun _ -> Plog.append t p ~pos:0 ~len:40))

(* A Reproduce round of one item whose heap extent is already marked
   dirty: redo from the frame's bytes, the applied watermark, the recycle
   note and one persist ordering.  Its store dirties one home line.  It
   took 15.0 words, 11 beyond that line: the span closure, the recycle
   note's tuple and its list cell. *)
let test_reproduce_round () =
  let s, _ = state { combined with Config.reproduce_batch = 1 } in
  let n = 200 in
  for i = 0 to n do
    ingest s (frame ~tid:(i + 1) [ 64 ])
  done;
  Reproduce.round s;
  let words = per_call n (fun _ -> Reproduce.round s) in
  check Alcotest.int "every item applied" (n + 1) (Engine_state.applied s);
  guard "one Reproduce round of one item" ~limit:0. words

(* A checkpoint of [k] dirty extents writes their CRC slots (one line), the
   checkpoint record (one line) and the recycled ring's header (one line)
   and allocates only its 4-word state record.  It took
   254.0 words for 8 extents: the extent list, its range list, the CRCs'
   and slot words' boxes, the word array and its boxes, the slot buffer,
   the recycle table, the header image and the span closure. *)
let test_checkpoint () =
  let s, _ = state combined in
  let k = 8 in
  let addrs = List.init k (fun e -> 4096 + (e * Config.crc_extent)) in
  let n = 50 in
  let words = ref 0. in
  for i = 0 to n do
    ingest s (frame ~tid:(i + 1) addrs);
    Reproduce.round s;
    check Alcotest.int "k extents dirty" k (Crcdir.marked s.Engine_state.dirty_extents);
    let w = Test_plog.allocated (fun () -> Reproduce.checkpoint s) in
    if i > 0 then words := !words +. w
  done;
  let words = (!words -. (float_of_int n *. Test_plog.allocated ignore)) /. float_of_int n in
  check Alcotest.int "checkpointed" (n + 1) s.Engine_state.checkpointed;
  guard (Printf.sprintf "a checkpoint of %d extents" k) ~limit:4. words

(* A ring scan reads the data area once, into one buffer that holds it
   twice over, so a frame wrapping the ring end is contiguous.  Loading the
   area into a buffer of its own and then concatenating it with itself
   took three times the area. *)
let test_attach_scan () =
  let size = 2 lsl 20 in
  let nvm = Nvm.create ~charge_time:false Pmem_config.default ~size in
  let dcap = Plog.data_capacity (Plog.format nvm ~base:0 ~size) in
  let bytes = 8. *. Test_plog.allocated (fun () -> ignore (Plog.attach_scan nvm ~base:0 ~size)) in
  if bytes > float_of_int ((2 * dcap) + 4096) then
    Alcotest.failf "attach_scan of a %d-byte data area allocated %.0f bytes" dcap bytes

(* A checkpoint recycles each noted ring up to its furthest noted record,
   in ascending region order, and leaves the other rings alone.  Region
   [r] holds one record per note on it, then a last one of [10 + r]
   bytes that no note reaches, so the ring's "used" counter after its
   recycle names the region and shows the furthest note was taken. *)
let prop_recycle =
  let gen =
    QCheck2.Gen.(
      let* nregions = int_range 1 40 in
      let+ notes = list_size (int_range 0 80) (int_range 0 (nregions - 1)) in
      (nregions, notes))
  in
  QCheck2.Test.make ~name:"recalloc: a checkpoint recycles noted rings in region order"
    ~count:60 gen (fun (nregions, notes) ->
      let cfg =
        { combined with
          Config.nthreads = nregions;
          heap_size = 1 lsl 16;
          plog_size = 4096;
          persist = Config.Per_thread { daemons = 1; min_entries = 1; max_entries = 8 } }
      in
      let s, _ = state cfg in
      let ends =
        Array.init nregions (fun r ->
            let plog = s.Engine_state.plogs.(r) in
            let n = List.length (List.filter (( = ) r) notes) in
            let ends =
              Array.init n (fun _ ->
                  Plog.append plog (Bytes.make 8 'a') ~pos:0 ~len:8;
                  Plog.tail_off plog)
            in
            Plog.append plog (Bytes.make (10 + r) 'b') ~pos:0 ~len:(10 + r);
            ends)
      in
      let taken = Array.make nregions 0 in
      List.iter
        (fun r ->
          s.Engine_state.recycle_notes <- s.Engine_state.recycle_notes + 1;
          s.Engine_state.recycle_end.(r) <- ends.(r).(taken.(r));
          taken.(r) <- taken.(r) + 1;
          s.Engine_state.recycle_seq.(r) <- taken.(r))
        notes;
      let last = Plog.record_overhead + 10 in
      let expected =
        List.filter_map
          (fun r -> if taken.(r) > 0 then Some (last + r) else None)
          (List.init nregions Fun.id)
      in
      let series =
        Trace.enable ();
        Fun.protect ~finally:Trace.disable (fun () ->
            Reproduce.checkpoint s;
            List.map snd (Trace.counter_series ~cat:"plog" "used"))
      in
      let untouched r =
        taken.(r) > 0
        || Plog.used_space s.Engine_state.plogs.(r) = last + r
      in
      series = expected
      && List.for_all untouched (List.init nregions Fun.id)
      && s.Engine_state.recycle_notes = 0
      && Array.for_all (( = ) (-1)) s.Engine_state.recycle_end)

(* The dirty-extent set against a list: each epoch marks extents, some
   more than once; the set holds each once, counts them, and lists them
   newest marked first; [update] empties it for the next epoch, which
   marks some of the same extents again. *)
let prop_dirty_set =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 4) (list_size (int_range 0 400) (int_range 0 511)))
  in
  QCheck2.Test.make ~name:"recalloc: the dirty set holds each extent once, in marking order"
    ~count:100 gen (fun epochs ->
      let s, _ = state combined in
      let d = Crcdir.dirty () in
      List.for_all
        (fun marks ->
          let held = ref [] in
          List.iter
            (fun e ->
              Crcdir.mark d e;
              if not (List.mem e !held) then held := e :: !held)
            marks;
          let same =
            Crcdir.marked d = List.length !held && Crcdir.dirty_extents d = !held
          in
          Crcdir.update s.Engine_state.crcdir d;
          same && Crcdir.marked d = 0 && Crcdir.dirty_extents d = [])
        epochs)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dirty_set;
    Alcotest.test_case "reading a frame in place" `Quick test_frame_read;
    Alcotest.test_case "follower ingest of one record" `Quick test_follower_ingest;
    Alcotest.test_case "a ring append" `Quick test_plog_append;
    Alcotest.test_case "a Reproduce round of one item" `Quick test_reproduce_round;
    Alcotest.test_case "a checkpoint of k extents" `Quick test_checkpoint;
    Alcotest.test_case "a ring scan allocates its doubled copy" `Quick test_attach_scan;
    QCheck_alcotest.to_alcotest prop_recycle;
  ]
