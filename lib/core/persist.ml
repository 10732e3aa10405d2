(* The Persist step (Section 3.3): background daemons drain the volatile
   logs into checksummed records in the persistent log rings and publish
   the durable ID.  Two policies share one record path, [commit_record]:
   per-thread persist cuts each volatile log into bounded records, and
   combined persist merges all logs into groups that a second daemon
   flushes. *)

open Engine_state
module Combine = Dudetm_log.Combine
module Lz = Dudetm_log.Lz

(* The replay-item rule, shared by the live Persist path, follower
   ingest, engine recovery and the offline scrub: a per-thread record
   replays transaction by transaction; a combined record is one unit over
   its contiguous ID range, because its last-write-wins body cannot be
   split back into transactions.  One in-place pass over the record's
   plain body ([body]'s bytes [\[pos0, stop)]) finds each item's entry
   bounds, entry count and highest cross-shard global ID; the items come
   back chained in record order (the first, or [no_item]), none yet
   holding the record's ring position. *)
let item ~region body ~lo ~hi ~pos ~stop ~nentries ~cross =
  { lo; hi; body; pos; stop; nentries; cross; region; end_off = -1; rec_next_seq = -1;
    next = no_item }

let scan_record cfg ~region body pos0 stop =
  let per_tx =
    match cfg.Config.persist with Config.Per_thread _ -> true | Config.Combined _ -> false
  in
  let first = ref no_item and last = ref no_item in
  let start = ref pos0 and n = ref 0 and cross = ref 0 in
  let ntids = ref 0 and lo = ref 0 and hi = ref 0 in
  let p = ref pos0 in
  while !p < stop do
    let tag = Log_entry.tag_at body !p ~stop in
    let next = !p + Log_entry.tag_size tag in
    incr n;
    (match tag with
    | Log_entry.Cross_tag -> cross := max !cross (Log_entry.field body !p 0)
    | Log_entry.Tx_end_tag ->
      let tid = Log_entry.field body !p 0 in
      if per_tx then begin
        let it =
          item ~region body ~lo:tid ~hi:tid ~pos:!start ~stop:next ~nentries:!n ~cross:!cross
        in
        if !first == no_item then first := it else !last.next <- it;
        last := it;
        start := next;
        n := 0;
        cross := 0
      end
      else begin
        if !ntids = 0 then begin
          lo := tid;
          hi := tid
        end
        else hi := max !hi tid;
        incr ntids
      end
    | Log_entry.Write_tag | Log_entry.Alloc_tag | Log_entry.Free_tag -> ());
    p := next
  done;
  if per_tx then begin
    (* A per-thread record ends on a transaction boundary. *)
    assert (!n = 0);
    !first
  end
  else if !ntids = 0 then no_item
  else item ~region body ~lo:!lo ~hi:!hi ~pos:pos0 ~stop ~nentries:!n ~cross:!cross

(* A record's transaction-ID range, its items' lowest and highest IDs,
   and its entry count. *)
let rec id_lo acc it = if it == no_item then acc else id_lo (min acc it.lo) it.next

let rec id_hi acc it = if it == no_item then acc else id_hi (max acc it.hi) it.next

let rec entries acc it = if it == no_item then acc else entries (acc + it.nentries) it.next

(* ------------------------------------------------------------------ *)
(* Bounded adaptive group commit                                       *)
(*                                                                     *)
(* Instead of draining the whole backlog into one record (whose NVM     *)
(* transfer then occupies the channel for the entire backlog's bytes —  *)
(* the 150x commit-latency tail), the Persist daemons cut records at a  *)
(* bounded number of entries and flush a batch when it reaches the      *)
(* bound OR when it has aged past [batch_deadline], whichever first.    *)
(* The bound adapts to the recent arrival rate: an EWMA of the backlog  *)
(* observed at each flush, clamped to [batch_min, batch_max], so light  *)
(* load gets small low-latency batches and heavy load amortizes the     *)
(* per-record overhead without ever exceeding the cap.                  *)
(* ------------------------------------------------------------------ *)

(* Fold one observed backlog into the adaptive bound. *)
let note_batch_fill t ~min_entries ~max_entries pending =
  let alpha = 0.25 in
  t.batch_ewma <- ((1.0 -. alpha) *. t.batch_ewma) +. (alpha *. float_of_int pending);
  let b = int_of_float (ceil t.batch_ewma) in
  t.batch_bound <- max min_entries (min b max_entries);
  stat_max t.stats "batch_bound_hwm" t.batch_bound

(* Fold one NVM record write into the measured drain rate (cycles per
   log entry, wall time at the channel including contention).  Admission
   pacing uses this to charge producers the real cost of the backlog
   they create. *)
let note_drain_pace t ~entries ~cycles =
  if entries > 0 && cycles >= 0 then begin
    let per = float_of_int cycles /. float_of_int entries in
    t.drain_pace.(0) <-
      (if t.drain_pace.(0) <= 0.0 then per
       else (0.75 *. t.drain_pace.(0)) +. (0.25 *. per))
  end

(* The batch clock.  Slot [i]'s batch opens (is stamped [now]) when it
   first holds data and closes when it empties; the result says whether
   an open batch has aged past the group-commit deadline. *)
let aged t i ~now ~open_ =
  if open_ then begin
    if t.open_at.(i) < 0 then t.open_at.(i) <- now;
    now - t.open_at.(i) >= t.cfg.Config.batch_deadline
  end
  else begin
    t.open_at.(i) <- -1;
    false
  end

(* Deadline aging polls by advancing simulated time: a time-based
   [wait_until] predicate would deadlock the scheduler once every other
   thread blocks (nothing else advances the clock). *)
let poll_step t = max 1 (t.cfg.Config.batch_deadline / 4)

(* Why a batch was cut: it reached its size bound, its deadline (or a
   caller blocked on durability), or the run is draining. *)
type cut = Size | Deadline | Drain

let note_cut t cut =
  Stats.incr t.stats
    (match cut with
    | Size -> "batch_size_flushes"
    | Deadline -> "batch_deadline_flushes"
    | Drain -> "batch_drain_flushes")

(* Queue a committed record's replay items; the last carries the
   record's ring position. *)
let rec queue_items q plog it =
  if it.next == no_item then begin
    it.end_off <- Plog.tail_off plog;
    it.rec_next_seq <- Plog.next_seq plog
  end;
  Queue.push it q;
  if it.next != no_item then queue_items q plog it.next

(* A passed optional argument is a fresh [Some]: [~persist] is passed only
   in the mutant's case. *)
let append plog ~persist b ~pos ~len =
  if persist then Plog.append plog b ~pos ~len else Plog.append ~persist:false plog b ~pos ~len

(* Append one sealed record, [b]'s bytes [\[pos, pos + len)], to ring
   [region] and publish it: the NVM write, the drain-pace sample, the
   flush counters, the record's replay items (chained from [items], the
   {!scan_record} of its plain body), the durable-ID advance and the
   replication tap.  Serves the per-thread flush, the combined flusher
   and follower ingest.  A [shipped] record was already fenced and
   published by the primary's Persist step: no mutant guard applies to
   it, and it opens no [persist.flush] span of its own. *)
let commit_record ~shipped t region b ~pos ~len items =
  let plog = t.plogs.(region) in
  (* Seeded mutant (checker self-test only): skip the record's persist
     fence, so the durable ID published below covers a record still
     sitting in the cache — a crash loses transactions the application
     already acknowledged. *)
  let persist = shipped || not (Inject.armed Early_durable_publish) in
  let seq = Plog.next_seq plog in
  let t_io = Sched.now () in
  t.flush_started_at <- t_io;
  if shipped || not (Trace.enabled ()) then append plog ~persist b ~pos ~len
  else Trace.span ~cat:"persist" "flush" (fun () -> append plog ~persist b ~pos ~len);
  t.flush_started_at <- -1;
  note_drain_pace t ~entries:(entries 0 items) ~cycles:(Sched.now () - t_io);
  Stats.incr t.stats "flush_records";
  Stats.add t.stats "flush_payload_bytes" len;
  stat_max t.stats "plog_hwm_bytes" (Plog.used_space plog);
  if items != no_item then queue_items t.queues.(region) plog items;
  (* Under the Skip_batch_seal mutant the combiner already published
     these IDs at seal time. *)
  if shipped || not (Inject.armed Skip_batch_seal) then note_flushed t items;
  Sched.signal t.wake_repro;
  match t.ship_hook with
  | Some ship when items != no_item ->
    ship ~seq ~lo:(id_lo max_int items) ~hi:(id_hi min_int items) b ~pos ~len
  | Some _ | None -> ()

(* Seal a cut batch of [n] input entries, already encoded into the plain
   payload [plain]: under [compress], LZ-compress its body once, charging
   the compression CPU and counting both sizes.  The payload keeps
   whichever body is smaller. *)
let seal t ~n ~compress plain =
  stat_max t.stats "batch_hwm_entries" n;
  if not compress then plain
  else
    Trace.span ~cat:"persist" "compress" (fun () ->
        let len = Bytes.length plain - 1 in
        Sched.advance
          (int_of_float (float_of_int len *. t.cfg.Config.compress_cost_per_byte));
        let comp = Lz.compress ~pos:1 ~len plain in
        Stats.add t.stats "compress_in_bytes" len;
        Stats.add t.stats "compress_out_bytes" (Bytes.length comp);
        Log_entry.frame_compressed plain comp)

(* A volatile log's entries [\[hd, cut)], encoded into one plain
   payload. *)
let encode_vlog vlog ~hd ~cut =
  let len = ref 0 in
  for k = hd to cut - 1 do
    len := !len + Log_entry.encoded_size (Vlog.get vlog k)
  done;
  let buf = Log_entry.plain_payload !len in
  let pos = ref 1 in
  for k = hd to cut - 1 do
    pos := Log_entry.encode_into buf !pos (Vlog.get vlog k)
  done;
  buf

(* The cut of a volatile log's committed entries [hd, cm): the last
   transaction boundary within the entry cap and [bytes_avail], but always
   at least one whole transaction — or [hd] when even the first does not
   fit.  The same pass returns the first transaction's encoded size. *)
let find_cut vlog ~hd ~cm ~cap bytes_avail =
  let pos = ref hd and cut = ref hd and size = ref 0 and n = ref 0 in
  let first = ref 0 in
  (try
     while !pos < cm do
       let e = Vlog.get vlog !pos in
       let sz = Log_entry.encoded_size e in
       if !first > 0 && (!n >= cap || !size + sz > bytes_avail) then raise Exit;
       size := !size + sz;
       incr n;
       incr pos;
       match e with
       | Log_entry.Tx_end _ ->
         if !first = 0 then first := !size;
         if !size <= bytes_avail then cut := !pos else raise Exit
       | Log_entry.Write _ | Log_entry.Alloc _ | Log_entry.Free _ | Log_entry.Cross _ -> ()
     done
   with Exit -> ());
  (!cut, !first)

(* Write thread [i]'s volatile-log entries [\[hd, cut)] as one record. *)
let flush_cut t i vlog ~hd ~cut =
  let n = cut - hd in
  Sched.advance (t.cfg.Config.flush_cost_per_entry * n);
  let plain = encode_vlog vlog ~hd ~cut in
  let payload = seal t ~n ~compress:false plain in
  commit_record ~shipped:false t i payload ~pos:0 ~len:(Bytes.length payload)
    (scan_record t.cfg ~region:i plain 1 (Bytes.length plain));
  Vlog.consume_to vlog cut

(* Flush the longest prefix of whole transactions from thread [i]'s
   volatile log that fits the adaptive entry bound and the persistent
   ring's free space.  Returns true if a record was written. *)
let flush_thread t i ~wait_space =
  let vlog = t.vlogs.(i) and plog = t.plogs.(i) in
  let hd = Vlog.head vlog and cm = Vlog.committed vlog in
  if cm <= hd then false
  else begin
    stat_max t.stats "vlog_hwm_entries" (cm - hd);
    let budget () = Plog.free_space plog - Plog.record_overhead - 1 in
    let scan () = find_cut vlog ~hd ~cm ~cap:t.batch_bound (budget ()) in
    let cut, need1 = scan () in
    if need1 + Plog.record_overhead + 1 > Plog.data_capacity plog then
      invalid_arg "Dudetm: a single transaction exceeds the persistent log ring";
    let cut =
      if cut > hd || not wait_space then cut
      else begin
        Sched.wait_on t.space_on.(i) ~label:"plog space" (fun () ->
            budget () >= need1 || t.stop_flag);
        fst (scan ())
      end
    in
    if cut = hd then false
    else begin
      (* The Fun.protect-based [Trace.span] keeps the trace balanced even
         when the scheduler kills this daemon mid-flush.  [persist.batch]
         covers the whole unit (CPU work, NVM write, bookkeeping); the
         inner [persist.flush] isolates the NVM record write. *)
      if Trace.enabled () then
        Trace.span ~cat:"persist" "batch" (fun () -> flush_cut t i vlog ~hd ~cut)
      else flush_cut t i vlog ~hd ~cut;
      true
    end
  end

let plain_loop p ~daemons ~min_entries ~max_entries t =
  let mine =
    List.filter (fun i -> i mod daemons = p) (List.init t.cfg.Config.nthreads (fun i -> i))
  in
  let pending i = Vlog.committed t.vlogs.(i) - Vlog.head t.vlogs.(i) in
  let has_data i = pending i > 0 in
  let rec loop () =
    maybe_fault t "persist";
    let now = Sched.now () in
    (* Flush an undersized batch immediately when somebody is blocked on
       durability or the run is winding down; otherwise hold it for the
       size bound or the deadline. *)
    let urgent = t.durable_waiters > 0 || t.draining || t.stop_flag in
    let ripe i =
      let aged = aged t i ~now ~open_:(has_data i) in
      has_data i && (pending i >= t.batch_bound || urgent || aged)
    in
    (* Fullest vlog first: the producer closest to blocking on a full
       ring is served before lightly loaded ones, which is what converts
       the old drain-everything latency spike into a bounded wait.  A
       ripe vlog whose persistent ring is full (recycle pending) must
       not stall the others: fall through to the next-fullest ripe vlog
       and only wait when none can make progress. *)
    let ripe_by_fill =
      List.sort
        (fun a b -> compare (pending b) (pending a))
        (List.filter ripe mine)
    in
    let flushed =
      List.fold_left
        (fun done_ i ->
          match done_ with
          | Some _ -> done_
          | None ->
            let n = pending i in
            if flush_thread t i ~wait_space:false then begin
              note_cut t
                (if n >= t.batch_bound then Size else if urgent then Drain else Deadline);
              note_batch_fill t ~min_entries ~max_entries n;
              Some i
            end
            else None)
        None ripe_by_fill
    in
    match flushed with
    | Some i ->
      t.open_at.(i) <- (if has_data i then Sched.now () else -1);
      Sched.yield ();
      loop ()
    | None ->
      if List.exists has_data mine then begin
        (* An open batch below the bound ages toward the deadline; when
           every ripe vlog's ring is full, advancing also gives Reproduce
           simulated time to checkpoint and recycle (a predicate wait
           here could spin without advancing the clock). *)
        Sched.advance (poll_step t);
        loop ()
      end
      else if t.stop_flag then ()
      else begin
        Sched.wait_on t.persist_on.(p) ~label:"persist: waiting for logs" (fun () ->
            t.stop_flag || List.exists has_data mine);
        Sched.yield ();
        loop ()
      end
  in
  loop ()

(* Combined mode is a two-stage pipeline over two daemons:

     combiner ("persist-0")      merges all volatile logs into batches of
                                 up to [group] transactions in
                                 global ID order, combines (and
                                 optionally compresses) each batch and
                                 seals it onto [t.prepared];
     flusher  ("persist-flush")  pops sealed batches and writes each as
                                 one record to ring 0, publishing the
                                 durable IDs when the persist completes.

   The combiner's CPU work on batch [k+1] (merge, last-write-wins
   combine, CRC/encode, compression) genuinely overlaps batch [k]'s NVM
   channel occupancy because the two stages run on different simulated
   threads.  [t.prepared] is bounded: a deep pipeline would only grow
   the window of sealed-but-unflushed (hence volatile) acknowledged-by
   -nobody work without adding overlap. *)
let max_prepared = 2

(* Feed a staged transaction body (newest entry first) in log order. *)
let rec feed_oldest_first builder = function
  | [] -> ()
  | e :: older ->
    feed_oldest_first builder older;
    Combine.feed builder e

let combined_loop ~group ~compress t =
  let staging = t.staging in
  let builder = Combine.builder () in
  (* One pass per volatile log: each committed transaction's body is
     staged at its end mark, which the seal re-adds. *)
  let drain_vlogs () =
    for i = 0 to Array.length t.vlogs - 1 do
      let vlog = t.vlogs.(i) in
      let hd = Vlog.head vlog and cm = Vlog.committed vlog in
      if cm > hd then begin
        let body = ref [] in
        for k = hd to cm - 1 do
          match Vlog.get vlog k with
          | Log_entry.Tx_end { tid } ->
            Hashtbl.replace staging tid !body;
            body := []
          | e -> body := e :: !body
        done;
        assert (!body = []);
        Vlog.consume_to vlog cm
      end
    done
  in
  let contiguous () =
    let n = ref 0 in
    while Hashtbl.mem staging (t.next_flush + !n) do
      incr n
    done;
    !n
  in
  (* Merge transactions [lo..hi] and combine them into one payload. *)
  let combine lo hi =
    for tid = lo to hi do
      feed_oldest_first builder (Hashtbl.find staging tid);
      Combine.feed builder (Log_entry.Tx_end { tid })
    done;
    let r = Combine.seal_payload builder in
    Sched.advance (t.cfg.Config.flush_cost_per_entry * (snd r).Combine.entries_in);
    r
  in
  let seal_take take =
    let lo = t.next_flush in
    let hi = lo + take - 1 in
    let overlapping = t.flush_started_at >= 0 in
    let plain, cstats =
      if Trace.enabled () then
        Trace.span ~cat:"persist" "combine" (fun () -> combine lo hi)
      else combine lo hi
    in
    Stats.add t.stats "combine_writes_in" cstats.Combine.writes_in;
    Stats.add t.stats "combine_writes_out" cstats.Combine.writes_out;
    let payload = seal t ~n:cstats.Combine.entries_in ~compress plain in
    let need = Plog.record_overhead + Bytes.length payload in
    if need > Plog.data_capacity t.plogs.(0) then
      invalid_arg "Dudetm: combined group exceeds the persistent log ring";
    (* This seal ran while the flusher held the channel: the cycles
       spent combining were hidden behind batch [k]'s transfer. *)
    if overlapping && t.flush_started_at >= 0 then begin
      let hidden = Sched.now () - t.flush_started_at in
      if hidden > 0 then begin
        Stats.add t.stats "pipe_overlap_cycles" hidden;
        Trace.instant ~cat:"persist" "pipe_overlap" hidden
      end
    end;
    Queue.push { pb_payload = payload; pb_plain = plain } t.prepared;
    Sched.signal t.wake_flush;
    for tid = lo to hi do
      Hashtbl.remove staging tid
    done;
    (* Seeded mutant (checker self-test only): acknowledge the batch
       at seal time — its record has not reached NVM, so a crash in
       the pipeline window loses acknowledged transactions. *)
    if Inject.armed Skip_batch_seal then
      note_flushed t (scan_record t.cfg ~region:0 plain 1 (Bytes.length plain));
    t.next_flush <- hi + 1;
    t.open_at.(0) <- -1
  in
  let seal_batch take =
    if Trace.enabled () then Trace.span ~cat:"persist" "batch" (fun () -> seal_take take)
    else seal_take take
  in
  let rec loop () =
    maybe_fault t "persist";
    drain_vlogs ();
    let avail = contiguous () in
    let deadline_hit = aged t 0 ~now:(Sched.now ()) ~open_:(avail > 0) in
    let waiter_hit = avail > 0 && t.durable_waiters > 0 in
    let tail_hit =
      (t.draining || t.stop_flag) && avail > 0 && last_tid t < t.next_flush + avail
    in
    if Queue.length t.prepared >= max_prepared then begin
      Sched.wait_on t.seal_on ~label:"persist: pipeline full" (fun () ->
          Queue.length t.prepared < max_prepared || t.stop_flag);
      Sched.yield ();
      loop ()
    end
    else if avail >= group then begin
      note_cut t Size;
      seal_batch group;
      loop ()
    end
    else if deadline_hit || waiter_hit || tail_hit then begin
      (* Short batch: the deadline expired, a caller is blocked on
         durability, or this is the tail of the run. *)
      note_cut t (if tail_hit && not (deadline_hit || waiter_hit) then Drain else Deadline);
      seal_batch avail;
      loop ()
    end
    else if t.stop_flag && avail = 0 && Hashtbl.length staging = 0 then begin
      t.combiner_done <- true;
      Sched.signal t.wake_flush
    end
    else if avail > 0 then begin
      (* An open batch below the group size: age it toward the deadline. *)
      Sched.advance (poll_step t);
      loop ()
    end
    else begin
      Sched.wait_on t.persist_on.(0) ~label:"persist: waiting for group" (fun () ->
          t.stop_flag || t.draining
          || Array.exists (fun v -> Vlog.committed v > Vlog.head v) t.vlogs);
      Sched.yield ();
      loop ()
    end
  in
  loop ()

(* Pipeline stage 2: write sealed batches to NVM and publish durability
   per batch.  All in-flight state is the popped batch itself; popping
   happens after the fault point, so a supervised restart never loses or
   duplicates a record. *)
let flush_loop t =
  let rec loop () =
    maybe_fault t "persist-flush";
    if not (Queue.is_empty t.prepared) then begin
      let pb = Queue.pop t.prepared in
      Sched.signal t.wake_seal;
      let need = Plog.record_overhead + Bytes.length pb.pb_payload in
      (* A ready wait returns at once; testing first skips its closure. *)
      if Plog.free_space t.plogs.(0) < need then
        Sched.wait_on t.space_on.(0) ~label:"plog space (combined)" (fun () ->
            Plog.free_space t.plogs.(0) >= need);
      commit_record ~shipped:false t 0 pb.pb_payload ~pos:0 ~len:(Bytes.length pb.pb_payload)
        (scan_record t.cfg ~region:0 pb.pb_plain 1 (Bytes.length pb.pb_plain));
      loop ()
    end
    else if t.stop_flag && t.combiner_done then ()
    else begin
      Sched.wait_on t.flush_on ~label:"flush: waiting for sealed batch" (fun () ->
          (not (Queue.is_empty t.prepared)) || (t.stop_flag && t.combiner_done));
      Sched.yield ();
      loop ()
    end
  in
  loop ()

let spawn t =
  match t.cfg.Config.persist with
  | Config.Combined { group; compress } ->
    spawn_daemon t "persist-0" (combined_loop ~group ~compress);
    spawn_daemon t "persist-flush" flush_loop
  | Config.Per_thread { daemons; min_entries; max_entries } ->
    for p = 0 to daemons - 1 do
      spawn_daemon t (Printf.sprintf "persist-%d" p)
        (plain_loop p ~daemons ~min_entries ~max_entries)
    done

(* A follower runs no Perform and no Persist: the primary's Persist
   daemon already produced the sealed record, so ingesting one is just
   the flusher's tail — append the exact shipped payload to ring 0,
   queue the replay item and advance the local durable watermark.  The
   follower's ring therefore holds byte-identical records at the same
   sequence numbers as the primary's ring 0, which is what makes
   promotion plain [attach] recovery.  The payload is [b]'s bytes
   [\[pos, pos + len)], read where it arrived: a plain payload's items
   point into [b] itself. *)
let ingest_record t b ~pos ~len =
  let items =
    if len > 0 && Log_entry.is_plain b pos then
      scan_record t.cfg ~region:0 b (pos + 1) (pos + len)
    else
      let body, bpos = Log_entry.plain_body (Bytes.sub b pos len) in
      scan_record t.cfg ~region:0 body bpos (Bytes.length body)
  in
  if items == no_item then true
  else begin
    let lo = id_lo max_int items in
    if lo <> t.durable + 1 then
      invalid_arg
        (Printf.sprintf
           "Dudetm.ingest_record: batch [%d,%d] breaks the contiguous durable prefix at %d"
           lo (id_hi min_int items) t.durable);
    if Plog.free_space t.plogs.(0) < Plog.record_overhead + len + 1 then
      (* Ring full (replay gated or Reproduce behind): the caller keeps
         the frame buffered and retries once recycling frees space. *)
      false
    else begin
      commit_record ~shipped:true t 0 b ~pos ~len items;
      true
    end
  end
