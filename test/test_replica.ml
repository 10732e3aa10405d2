(* lib/replica tests: wire-frame codec (roundtrip, CRC rejection of any
   single-bit flip, truncation), link fault injection (deterministic
   seeded drop/duplicate/reorder/delay), quorum math, K=1 degeneration to
   the unreplicated engine, end-to-end replication over hostile links
   (dedup by batch sequence, CRC rejection, in-order apply, retransmit
   with capped backoff), promotion truncation to the quorum prefix,
   bounded ack waits with explicit degraded mode and the [Replica_lag]
   diagnostic, replica trace spans / per-link byte accounting, and the
   failover campaign (clean pass + seeded Skip_quorum_gate mutant
   caught). *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Wire = Dudetm_log.Wire
module Checksum = Dudetm_log.Checksum
module Log_entry = Dudetm_log.Log_entry
module Plog = Dudetm_log.Plog
module Alloc = Dudetm_core.Alloc
module Crcdir = Dudetm_core.Crcdir
module Engine_state = Dudetm_core.Engine_state
module Persist = Dudetm_core.Persist
module Reproduce = Dudetm_core.Reproduce
module Trace = Dudetm_trace.Trace
module Check = Dudetm_check.Check
module Link = Dudetm_replica.Link
module Rep = Dudetm_replica.Replica.Make (Dudetm_tm.Tinystm)
module E = Rep.Engine

let check = Alcotest.check

(* Small cluster layout, same shape as the checker's engine configs. *)
let cfg ?(nthreads = 2) ?(ack_timeout = 2_000_000) () =
  {
    Config.default with
    Config.heap_size = 1 lsl 16;
    nthreads;
    vlog_capacity = 256;
    plog_size = 1 lsl 14;
    meta_size = 8192;
    persist = Config.Combined { group = 4; compress = true };
    reproduce_batch = 4;
    checkpoint_records = 2;
    seed = 7;
    ack_timeout;
  }

(* Short links so retransmit/backoff cycles stay small in tests. *)
let fast_link = { Link.default_config with Link.latency = 2_000 }

let rcfg ?(link = fast_link) k = { (Rep.default_config ~nreplicas:k ()) with Rep.link }

(* Counter body: transaction i writes the root to i and stamps slot
   (i mod 4), so the durable state is a function of the commit count. *)
let slot i = 8 + (8 * (i mod 4))

let body tx =
  let c1 = 1 + Int64.to_int (E.read tx 0) in
  E.write tx (slot c1) (Int64.of_int c1);
  E.write tx 0 (Int64.of_int c1)

let spawn_workers prim ~nthreads ~txs ~committed =
  List.init nthreads (fun th ->
      Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
          for _ = 1 to txs do
            match E.atomically prim ~thread:th body with
            | Some (_, tid) when tid > 0 -> committed := max !committed tid
            | _ -> ()
          done))

(* ------------------------------- wire ---------------------------------- *)

(* The receive path before frames were read in place: a variant-returning
   decoder, kept here as the reference {!Wire.check} and its field
   readers must agree with. *)
let ref_decode b =
  let len = Bytes.length b in
  let u64 off = Int64.to_int (Bytes.get_int64_le b off) in
  if len < 5 then None
  else if Bytes.get_int32_le b 0 <> Int32.of_int (Checksum.crc32 b 4 (len - 4)) then None
  else
    match Char.code (Bytes.get b 4) with
    | 1 ->
      if len < 41 then None
      else begin
        let plen = Int32.to_int (Bytes.get_int32_le b 37) in
        if plen < 0 || len <> 41 + plen then None
        else
          Some
            (Wire.Batch
               { seq = u64 5; lo = u64 13; hi = u64 21; acked = u64 29;
                 payload = Bytes.sub b 41 plen })
      end
    | 2 -> if len <> 21 then None else Some (Wire.Ack { seq = u64 5; durable = u64 13 })
    | 3 -> if len <> 13 then None else Some (Wire.Watermark { acked = u64 5 })
    | _ -> None

(* A frame read in place, as the variant the reference decoder builds. *)
let read_in_place b =
  match Wire.check b with
  | Wire.Invalid -> None
  | Wire.Batch_frame ->
    Some
      (Wire.Batch
         { seq = Wire.seq b; lo = Wire.lo b; hi = Wire.hi b; acked = Wire.acked b;
           payload = Bytes.sub b Wire.payload_pos (Wire.payload_len b) })
  | Wire.Ack_frame -> Some (Wire.Ack { seq = Wire.seq b; durable = Wire.durable b })
  | Wire.Watermark_frame -> Some (Wire.Watermark { acked = Wire.acked b })

let test_wire_roundtrip () =
  let payload = Bytes.of_string "redo-record-payload-bytes" in
  let b = Wire.encode (Wire.Batch { seq = 5; lo = 3; hi = 9; acked = 2; payload }) in
  check Alcotest.bool "batch frame kind" true (Wire.check b = Wire.Batch_frame);
  check Alcotest.int "seq" 5 (Wire.seq b);
  check Alcotest.int "lo" 3 (Wire.lo b);
  check Alcotest.int "hi" 9 (Wire.hi b);
  check Alcotest.int "acked" 2 (Wire.acked b);
  check Alcotest.string "payload" (Bytes.to_string payload)
    (Bytes.sub_string b Wire.payload_pos (Wire.payload_len b));
  let a = Wire.encode (Wire.Ack { seq = 41; durable = 40 }) in
  check Alcotest.bool "ack frame kind" true (Wire.check a = Wire.Ack_frame);
  check Alcotest.int "ack seq" 41 (Wire.seq a);
  check Alcotest.int "ack durable" 40 (Wire.durable a);
  let w = Wire.encode (Wire.Watermark { acked = 17 }) in
  check Alcotest.bool "watermark frame kind" true (Wire.check w = Wire.Watermark_frame);
  check Alcotest.int "watermark" 17 (Wire.acked w)

let test_wire_crc_rejects_any_flip () =
  let b = Wire.encode (Wire.Batch { seq = 1; lo = 1; hi = 4; acked = 0; payload = Bytes.of_string "payload" }) in
  for i = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      let c = Bytes.copy b in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl bit)));
      if Wire.check c <> Wire.Invalid then
        Alcotest.failf "flip of byte %d bit %d went undetected" i bit
    done
  done;
  check Alcotest.bool "truncated frame rejected" true
    (Wire.check (Bytes.sub b 0 (Bytes.length b - 1)) = Wire.Invalid);
  check Alcotest.bool "extended frame rejected" true
    (Wire.check (Bytes.cat b (Bytes.make 1 '\000')) = Wire.Invalid);
  check Alcotest.bool "tiny frame rejected" true (Wire.check (Bytes.make 3 'x') = Wire.Invalid)

(* The in-place reader agrees with the reference decoder on random frames
   of every kind (fields over the whole int range, payloads of 0..64
   bytes), and on every single-bit flip, every truncation and a one- to
   three-byte extension of each. *)
let prop_wire_in_place_matches_reference =
  let gen_frame =
    QCheck2.Gen.(
      let* k = int_range 0 2 in
      let* seq = int and* lo = int and* hi = int and* acked = int in
      let+ payload = string_size (int_range 0 64) in
      match k with
      | 0 -> Wire.Batch { seq; lo; hi; acked; payload = Bytes.of_string payload }
      | 1 -> Wire.Ack { seq; durable = lo }
      | _ -> Wire.Watermark { acked })
  in
  let gen = QCheck2.Gen.(pair gen_frame (string_size (int_range 1 3))) in
  QCheck2.Test.make ~name:"wire: the in-place reader equals the reference decoder" ~count:200
    gen (fun (frame, tail) ->
      let b = Wire.encode frame in
      let agree c = read_in_place c = ref_decode c in
      let ok = ref (agree b && ref_decode b = Some frame) in
      for i = 0 to (8 * Bytes.length b) - 1 do
        let c = Bytes.copy b in
        Bytes.set c (i / 8) (Char.chr (Char.code (Bytes.get c (i / 8)) lxor (1 lsl (i mod 8))));
        if not (agree c) then ok := false
      done;
      for n = 0 to Bytes.length b - 1 do
        if not (agree (Bytes.sub b 0 n)) then ok := false
      done;
      !ok && agree (Bytes.cat b (Bytes.of_string tail)))

(* ------------------------------- link ----------------------------------- *)

(* [n] sends at time 0, then drain.  After every send and every poll the
   link's [in_flight] must equal its own sent - dropped + duplicated -
   delivered.  Also returns each delivery as (recv clock, payload digest). *)
let link_fault_run ?(corrupt = 0.0) ?(n = 200) () =
  let faults =
    { Link.drop = 0.2; duplicate = 0.2; reorder = 0.3; delay = 0.1; delay_cycles = 5_000;
      corrupt }
  in
  let l =
    Link.create ~label:"test-link"
      { Link.latency = 1_000; bandwidth_gbps = 10.0; faults; seed = 42 }
  in
  let st = Link.stats l in
  let g k = Stats.get st k in
  let unbalanced = ref 0 in
  let balanced () =
    if
      Link.in_flight l
      <> g "frames_sent" - g "frames_dropped" + g "frames_duplicated" - g "frames_delivered"
    then incr unbalanced
  in
  let received = ref [] and deliveries = ref [] in
  ignore
    (Sched.run (fun () ->
         for i = 1 to n do
           Link.send l (Bytes.make 32 (Char.chr (i land 0xff)));
           balanced ()
         done;
         while Link.in_flight l > 0 do
           (let b = Link.recv l in
            if Bytes.length b > 0 then begin
              received := Bytes.get b 0 :: !received;
              deliveries :=
                (Sched.now (), String.sub (Digest.to_hex (Digest.bytes b)) 0 8) :: !deliveries
            end
            else Sched.advance 500);
           balanced ()
         done));
  check Alcotest.int "steps where in_flight <> sent - dropped + duplicated - delivered" 0
    !unbalanced;
  ( (List.rev !received, g "frames_sent", g "frames_dropped", g "frames_duplicated",
     g "frames_delivered", g "frames_reordered", g "frames_delayed"),
    List.rev !deliveries )

let test_link_faults_deterministic () =
  let (recv1, sent, dropped, duplicated, delivered, reordered, delayed), _ = link_fault_run () in
  check Alcotest.int "every send counted" 200 sent;
  check Alcotest.bool "some frames dropped" true (dropped > 0);
  check Alcotest.bool "some frames duplicated" true (duplicated > 0);
  check Alcotest.bool "some frames reordered" true (reordered > 0);
  check Alcotest.bool "some frames delayed" true (delayed > 0);
  check Alcotest.int "delivered = sent - dropped + duplicated"
    (sent - dropped + duplicated) delivered;
  (* Same seed, same schedule: the faulted stream replays exactly. *)
  let (recv2, _, _, _, _, _, _), _ = link_fault_run () in
  check Alcotest.bool "fault stream is deterministic" true (recv1 = recv2);
  (* Delivery order pinned exactly, corruption included: the recv clock and
     payload digest of every frame, in delivery order. *)
  let _, deliveries = link_fault_run ~corrupt:0.1 ~n:48 () in
  check
    Alcotest.(list (pair int string))
    "pinned delivery sequence"
    [
    (1000, "e05ba795"); (1500, "b3d5717c"); (1500, "03248497"); (1500, "890bd687");
    (1500, "ac622084"); (1500, "1bbc197d"); (1500, "6d2ba2c9"); (1500, "0357f629");
    (1500, "70a4f054"); (1500, "78c01349"); (1500, "6126dd91"); (1500, "6b798010");
    (1500, "06d61f29"); (1500, "f34d105e"); (1500, "777f9ed5"); (1500, "d934479f");
    (1500, "e35e96c6"); (1500, "c6feb25f"); (1500, "8d4ad7ae"); (1500, "837cb442");
    (1500, "49a68385"); (1500, "33ed1418"); (1500, "99a447d7"); (1500, "5089a2ee");
    (2500, "b3d5717c"); (2500, "0357f629"); (2500, "6b798010"); (2500, "c6feb25f");
    (2500, "8d4ad7ae"); (2500, "49a68385"); (4500, "cb81c010"); (4500, "af2f6c17");
    (4500, "961240ce"); (4500, "84a06b3c"); (4500, "5ac0462f"); (4500, "b77de0aa");
    (4500, "18d86af9"); (4500, "fdef47e3"); (6500, "46393a95"); (6500, "188444e4");
    (6500, "7646ca47"); (6500, "3b5875e7"); (9500, "0d1ab50d"); (9500, "76fa143f");
    ]
    deliveries

let test_link_partition_drops () =
  let l = Link.create ~label:"p" fast_link in
  ignore
    (Sched.run (fun () ->
         Link.set_partitioned l true;
         Link.send l (Bytes.make 8 'x');
         check Alcotest.int "partitioned send never queues" 0 (Link.in_flight l);
         Link.set_partitioned l false;
         Link.send l (Bytes.make 8 'y');
         check Alcotest.int "healed link queues" 1 (Link.in_flight l)));
  check Alcotest.int "partition drop counted" 1
    (Stats.get (Link.stats l) "frames_dropped_partition")

(* ------------------------------ quorum math ----------------------------- *)

let test_quorum_math () =
  List.iter
    (fun (k, q) -> check Alcotest.int (Printf.sprintf "quorum for K=%d" k) q (Rep.quorum_needed ~nreplicas:k))
    [ (1, 1); (2, 2); (3, 2); (4, 3); (5, 3) ]

let test_create_validates () =
  check Alcotest.bool "combine required" true
    (try
       ignore (Rep.create { (cfg ()) with Config.persist = Config.default.Config.persist });
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "ack_timeout validated" true
    (try
       ignore (Config.validate { (cfg ()) with Config.ack_timeout = 0 });
       false
     with Config.Invalid_config _ -> true)

(* --------------------- K=1 degenerates to PR 6 -------------------------- *)

let test_k1_matches_unreplicated () =
  let c1 = cfg ~nthreads:1 () in
  let txs = 12 in
  (* Unreplicated control. *)
  let plain = E.create c1 in
  ignore
    (Sched.run (fun () ->
         E.start plain;
         Sched.join ~label:"plain done" (spawn_workers plain ~nthreads:1 ~txs ~committed:(ref 0));
         E.drain plain;
         E.stop plain));
  (* K=1 cluster: every ack must be primary-local durability, immediately. *)
  let c = Rep.create ~rcfg:(rcfg 1) c1 in
  let prim = Rep.primary c in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         for i = 1 to txs do
           match E.atomically prim ~thread:0 body with
           | Some (_, tid) when tid > 0 ->
             (match Rep.wait_acked c tid with
             | Rep.Quorum -> ()
             | Rep.Degraded_quorum d -> Alcotest.failf "K=1 ack degraded at tx %d: %s" i d);
             check Alcotest.int "K=1 watermark is the primary durable id"
               (E.durable_id prim) (Rep.acked c)
           | _ -> ()
         done;
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "K=1 drain degraded: %s" d);
         Rep.sync_followers c;
         Rep.stop c));
  check Alcotest.int "same durable id as the unreplicated engine"
    (E.durable_id plain) (E.durable_id prim);
  for a = 0 to 4 do
    check Alcotest.int
      (Printf.sprintf "heap word %d matches the unreplicated engine" a)
      (Int64.to_int (E.heap_read_u64 plain (8 * a)))
      (Int64.to_int (E.heap_read_u64 prim (8 * a)))
  done;
  (* The follower replayed the same prefix. *)
  let r0 = Rep.replica c 0 in
  check Alcotest.int "follower sealed the full prefix" (E.durable_id prim) (E.durable_id r0);
  check Alcotest.int "follower replayed the full prefix" (E.durable_id prim) (E.applied_id r0)

(* ------------------------- follower ingest ----------------------------- *)

(* A follower ingests a shipped record without decoding it: one in-place
   scan of the payload finds the replay item and its IDs, and the payload
   itself is appended to ring 0.  So a whole ingest — scan, ring append,
   dirty-line set, replay item — allocates less than decoding the record
   into an entry list alone does.  Each record is 16 writes and one end
   mark (283 bytes, 36 words per copy). *)
let record tid =
  Log_entry.encode_payload
    (List.init 16 (fun a -> Log_entry.Write { addr = 8 * a; value = Int64.of_int (tid + a) })
    @ [ Log_entry.Tx_end { tid } ])

let test_ingest_allocation_guard () =
  let n = 40 in
  let payloads = Array.init (n + 1) (fun i -> record (i + 1)) in
  let decode =
    Test_plog.allocated (fun () ->
        for i = 1 to n do
          ignore (Log_entry.decode_payload payloads.(i))
        done)
  in
  let eng = E.create (cfg ()) in
  let ingest = ref 0. in
  ignore
    (Sched.run (fun () ->
         let ingest_all p = E.ingest_record eng p ~pos:0 ~len:(Bytes.length p) in
         ignore (ingest_all payloads.(0));
         ingest :=
           Test_plog.allocated (fun () ->
               for i = 1 to n do
                 if not (ingest_all payloads.(i)) then Alcotest.fail "ring full"
               done)));
  check Alcotest.int "every record sealed" (n + 1) (E.durable_id eng);
  let per_ingest = !ingest /. float_of_int n and per_decode = decode /. float_of_int n in
  if per_ingest >= per_decode then
    Alcotest.failf "%.1f words allocated per ingest, not below decoding alone (%.1f)"
      per_ingest per_decode

(* Reproduce redoes an item straight from its record's bytes: each write
   is stored from the body and its address queued in a flat buffer, so
   applying a 16-write item and persisting it allocates fewer words than
   the item has writes (the list path consed an [(addr, 8)] range per
   write, six words).  What remains is the dirty-line set's entries. *)
let test_redo_allocation_guard () =
  let n = 40 in
  let cf = cfg () in
  let item tid =
    let body, pos = Log_entry.plain_body (record tid) in
    match
      Engine_state.item_list (Persist.scan_record cf ~region:0 body pos (Bytes.length body))
    with
    | [ it ] -> it
    | _ -> Alcotest.fail "one combined record, one item"
  in
  let items = Array.init (n + 1) (fun i -> item (i + 1)) in
  let nvm = Nvm.create ~charge_time:false Dudetm_nvm.Pmem_config.default ~size:(1 lsl 16) in
  let alloc = Alloc.create ~base:Config.root_size ~size:((1 lsl 16) - Config.root_size) in
  let extents = Crcdir.dirty () and addrs = Engine_state.addrs () in
  let apply it =
    ignore (Reproduce.redo nvm alloc ~extents addrs ~frontier:0 it);
    Nvm.persist_words nvm addrs.Engine_state.buf addrs.Engine_state.len;
    addrs.Engine_state.len <- 0
  in
  apply items.(0);
  let per_item =
    Test_plog.allocated (fun () ->
        for i = 1 to n do
          apply items.(i)
        done)
    /. float_of_int n
  in
  check Alcotest.int64 "last item's first write is home" (Int64.of_int (n + 1))
    (Nvm.persisted_u64 nvm 0);
  if per_item >= 16. then
    Alcotest.failf "%.1f words allocated applying one 16-write item (limit 16)" per_item

(* A follower appends each shipped payload itself to its ring 0, so over
   a run long enough to wrap the ring several times every follower's ring
   0 data area — records, CRCs and the stale bytes of earlier laps — stays
   byte-identical to the primary's.  The ring header is left out: it holds
   each ring's own recycle cursor, which moves with that node's
   Reproduce. *)
let check_rings_identical c what =
  let cf = E.config (Rep.primary c) in
  let base = Config.plog_base cf 0 + Plog.header_size in
  let len = cf.Config.plog_size - Plog.header_size in
  let ring e = Nvm.load_bytes (E.nvm e) base len in
  let prim = ring (Rep.primary c) in
  for i = 0 to Rep.nreplicas c - 1 do
    check Alcotest.bool
      (Printf.sprintf "%s: replica %d ring 0 equals the primary's" what i)
      true
      (Bytes.equal prim (ring (Rep.replica c i)))
  done

let test_follower_rings_identical () =
  let cf = { (cfg ()) with Config.plog_size = 1 lsl 12 } in
  let c = Rep.create ~rcfg:(rcfg 3) cf in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         Sched.join ~label:"workers done" (spawn_workers prim ~nthreads:2 ~txs:400 ~committed);
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "clean links degraded: %s" d);
         Rep.sync_followers c;
         Rep.stop c));
  let st = E.stats prim in
  let written =
    Stats.get st "flush_payload_bytes" + (Stats.get st "flush_records" * 24)
  in
  check Alcotest.bool "the ring wrapped more than twice" true
    (written > 2 * cf.Config.plog_size);
  check_rings_identical c "clean links"

(* ------------------- hostile links, end to end -------------------------- *)

let test_faulty_links_end_to_end () =
  let faults =
    { Link.drop = 0.15; duplicate = 0.15; reorder = 0.15; delay = 0.05;
      delay_cycles = 10_000; corrupt = 0.1 }
  in
  let link = { fast_link with Link.faults } in
  let c = Rep.create ~rcfg:(rcfg ~link 3) (cfg ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         Sched.join ~label:"workers done" (spawn_workers prim ~nthreads:2 ~txs:10 ~committed);
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "retransmit failed to reach quorum: %s" d);
         Rep.sync_followers c;
         Rep.stop c));
  check Alcotest.int "quorum acked everything committed" !committed (Rep.acked c);
  for i = 0 to 2 do
    let r = Rep.replica c i in
    check Alcotest.int
      (Printf.sprintf "replica %d sealed the full prefix" i)
      !committed (E.durable_id r);
    check Alcotest.int
      (Printf.sprintf "replica %d replayed the full prefix" i)
      !committed (E.applied_id r)
  done;
  check_rings_identical c "hostile links";
  (* The replayed state lives in each replica's persistent heap; promotion
     recovers it and must reproduce the full committed prefix. *)
  let eng, prom = Rep.promote c in
  check Alcotest.int "promotion recovers the full prefix" !committed
    prom.Rep.quorum_prefix;
  check Alcotest.int "promoted root matches the commit count" !committed
    (Int64.to_int (E.heap_read_u64 eng 0));
  let st = Rep.stats c in
  check Alcotest.bool "duplicates were deduped by batch seq" true (Stats.get st "dup_frames" > 0);
  check Alcotest.bool "corrupt frames were CRC-rejected" true (Stats.get st "crc_rejected" > 0);
  check Alcotest.bool "lost frames were retransmitted" true (Stats.get st "retransmits" > 0);
  check Alcotest.bool "retransmit rounds backed off" true
    (Stats.get st "retransmit_rounds" > 0 && Stats.get st "backoff_cycles" > 0);
  let corrupted =
    Array.fold_left
      (fun acc (down, up) ->
        acc + Stats.get down "frames_corrupted" + Stats.get up "frames_corrupted")
      0 (Rep.link_stats c)
  in
  check Alcotest.bool "links injected corruption" true (corrupted > 0)

(* The retransmit timer follows the link in use: over [fast_link] every
   backoff is at most 64 × its latency, well under the default link's
   8 × 20,000-cycle floor. *)
let test_retransmit_timer_follows_link () =
  let c = Rep.create ~rcfg:(rcfg 3) (cfg ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         (* Replica 0's down link drops every frame for a while: the
            primary retransmits to it round after round. *)
         Rep.set_partitioned c 0 true;
         Sched.join ~label:"workers done" (spawn_workers prim ~nthreads:2 ~txs:10 ~committed);
         Sched.advance 1_000_000;
         Rep.set_partitioned c 0 false;
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "healed drain degraded: %s" d);
         Rep.sync_followers c;
         Rep.stop c));
  check Alcotest.int "replica 0 caught up after the heal" !committed
    (E.durable_id (Rep.replica c 0));
  let st = Rep.stats c in
  let rounds = Stats.get st "retransmit_rounds" in
  check Alcotest.bool "the primary retransmitted" true (rounds > 0);
  let cap = 64 * fast_link.Link.latency * rounds in
  check Alcotest.bool
    (Printf.sprintf "backoff %d cycles over %d rounds within 64 x latency each (%d)"
       (Stats.get st "backoff_cycles") rounds cap)
    true
    (Stats.get st "backoff_cycles" <= cap)

(* -------------------- promotion truncates to quorum ---------------------- *)

(* At K=5 a transaction is quorum-acked once durable on the primary plus
   two replicas, so promotion's safe cut is the second-largest replica
   prefix — a lone replica that ran ahead of the quorum gets its
   never-acked tail discarded.  (At K=3 the cut is the maximum: an acked
   transaction is only guaranteed on one replica, so nothing above the
   longest prefix can be promised and nothing below it may be dropped.) *)
let test_promotion_truncates_to_quorum_prefix () =
  let c = Rep.create ~rcfg:(rcfg 5) (cfg ~nthreads:1 ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  let commit_one () =
    match E.atomically prim ~thread:0 body with
    | Some (_, tid) when tid > 0 -> committed := max !committed tid
    | _ -> ()
  in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         (* Phase 1: a quorum-acked prefix on every replica. *)
         for _ = 1 to 8 do
           commit_one ()
         done;
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "healthy drain degraded: %s" d);
         (* Phase 2: cut off every replica but 0.  The quorum watermark
            freezes; only replica 0 keeps receiving the tail. *)
         for i = 1 to 4 do
           Rep.set_partitioned c i true
         done;
         for _ = 1 to 24 do
           commit_one ()
         done;
         let guard = ref 0 in
         while E.durable_id (Rep.replica c 0) < !committed && !guard < 1_000 do
           incr guard;
           Sched.advance 5_000
         done;
         check Alcotest.int "replica 0 sealed the whole tail" !committed
           (E.durable_id (Rep.replica c 0));
         Sched.halt ()));
  let acked = Rep.acked c in
  check Alcotest.bool "watermark froze below the committed tail" true
    (acked < !committed);
  let _eng, prom = Rep.promote c in
  let durable = prom.Rep.report.Dudetm_core.Dudetm.durable in
  check Alcotest.bool "replica 0 ran ahead of the quorum" true
    (prom.Rep.candidates.(0) > prom.Rep.quorum_prefix);
  check Alcotest.int "winner is the longest prefix" 0 prom.Rep.promoted;
  check Alcotest.bool "the never-acked tail was discarded" true (prom.Rep.truncated_txs > 0);
  check Alcotest.int "promotion stops at the quorum prefix" prom.Rep.quorum_prefix durable;
  check Alcotest.bool "no quorum-acked transaction lost" true (durable >= acked);
  check Alcotest.int "promoted image matches its durable id" durable
    (Int64.to_int (E.heap_read_u64 _eng 0))

(* ----------------- bounded waits and explicit degradation ---------------- *)

let test_degraded_mode_and_heal () =
  let ack_timeout = 100_000 in
  let c = Rep.create ~rcfg:(rcfg 3) (cfg ~ack_timeout ()) in
  let prim = Rep.primary c in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         for i = 0 to 2 do
           Rep.set_partitioned c i true
         done;
         let tid =
           match E.atomically prim ~thread:0 body with
           | Some (_, tid) -> tid
           | None -> Alcotest.fail "commit failed"
         in
         let t0 = Sched.now () in
         (match Rep.wait_acked c tid with
         | Rep.Quorum -> Alcotest.fail "quorum reached through a full partition"
         | Rep.Degraded_quorum msg ->
           check Alcotest.bool "degradation names the quorum" true
             (String.length msg > 0));
         let waited = Sched.now () - t0 in
         check Alcotest.bool
           (Printf.sprintf "wait bounded by ack_timeout (waited %d)" waited)
           true
           (waited <= ack_timeout + 50_000);
         (match Rep.health c with
         | Rep.Degraded _ -> ()
         | Rep.Healthy -> Alcotest.fail "degradation must be explicit, not silent");
         let diag = Rep.diagnostic c in
         let has needle =
           let n = String.length needle and l = String.length diag in
           let rec go i = i + n <= l && (String.sub diag i n = needle || go (i + 1)) in
           go 0
         in
         check Alcotest.bool "diagnostic reports per-replica lag" true (has "lag=");
         check Alcotest.bool "diagnostic reports retransmit counters" true
           (has "retransmits=");
         (try
            ignore (Rep.drain ~require_quorum:true c);
            Alcotest.fail "drain ~require_quorum through a full partition"
          with Rep.Replica_lag _ -> ());
         check Alcotest.bool "degraded acks counted" true
           (Stats.get (Rep.stats c) "degraded_acks" >= 1);
         (* Heal: retransmission catches the replicas up and the cluster
            returns to quorum service. *)
         for i = 0 to 2 do
           Rep.set_partitioned c i false
         done;
         let guard = ref 0 in
         while Rep.acked c < tid && !guard < 1_000 do
           incr guard;
           Sched.advance 5_000
         done;
         check Alcotest.bool "healed cluster reaches quorum" true (Rep.acked c >= tid);
         (match Rep.wait_acked c tid with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "still degraded after heal: %s" d);
         (match Rep.health c with
         | Rep.Healthy -> ()
         | Rep.Degraded d -> Alcotest.failf "health not restored after heal: %s" d);
         Rep.stop c))

(* ------------------- bounded retransmit retention ------------------------ *)

(* A partitioned follower must not pin unbounded primary DRAM: with a tiny
   retention cap, the laggard gets cut off (sticky, reported through
   [health]) while the live replicas keep acking the quorum. *)
let test_retention_cap_cuts_off_laggard () =
  let cap = 8 in
  let rc = { (rcfg 3) with Rep.max_retained = cap } in
  let c = Rep.create ~rcfg:rc (cfg ~nthreads:1 ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         Rep.set_partitioned c 2 true;
         for i = 1 to 24 do
           match E.atomically prim ~thread:0 body with
           | Some (_, tid) when tid > 0 -> (
             committed := max !committed tid;
             match Rep.wait_acked c tid with
             | Rep.Quorum -> ()
             | Rep.Degraded_quorum d ->
               Alcotest.failf "healthy quorum lost behind the laggard at tx %d: %s" i d)
           | _ -> ()
         done;
         (match Rep.drain c with
         | Rep.Quorum -> ()
         | Rep.Degraded_quorum d -> Alcotest.failf "drain lost quorum: %s" d);
         check Alcotest.bool
           (Printf.sprintf "retained queue bounded by the cap (%d)" (Rep.retained c))
           true
           (Rep.retained c <= cap);
         check Alcotest.bool "the partitioned laggard is cut off" true
           (Rep.cut_off c).(2);
         check Alcotest.bool "live replicas stay in service" false
           ((Rep.cut_off c).(0) || (Rep.cut_off c).(1));
         (match Rep.health c with
         | Rep.Degraded d ->
           let has needle =
             let n = String.length needle and l = String.length d in
             let rec go i = i + n <= l && (String.sub d i n = needle || go (i + 1)) in
             go 0
           in
           check Alcotest.bool "alarm names the cut-off replica" true (has "cut off");
           check Alcotest.bool "alarm names the retention bound" true (has "retention")
         | Rep.Healthy -> Alcotest.fail "a tripped retention cap must degrade health");
         (* Sticky: healing the link cannot un-cut the replica — its
            missing batches are gone; only a resync could revive it. *)
         Rep.set_partitioned c 2 false;
         Sched.advance 200_000;
         check Alcotest.bool "cut-off survives a link heal" true (Rep.cut_off c).(2);
         (match Rep.health c with
         | Rep.Degraded _ -> ()
         | Rep.Healthy -> Alcotest.fail "the lag alarm must stay sticky");
         Rep.stop c));
  check Alcotest.int "quorum acked everything committed" !committed (Rep.acked c);
  let st = Rep.stats c in
  check Alcotest.bool "retention drops counted" true (Stats.get st "retention_drops" > 0);
  check Alcotest.int "exactly one replica cut off" 1 (Stats.get st "replicas_cut_off")

(* ----------------------------- tracing ----------------------------------- *)

let with_tracer ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let test_trace_spans_and_link_accounting () =
  with_tracer @@ fun () ->
  let c = Rep.create ~rcfg:(rcfg 1) (cfg ~nthreads:1 ()) in
  let prim = Rep.primary c in
  let committed = ref 0 in
  ignore
    (Sched.run (fun () ->
         Rep.start c;
         Sched.join ~label:"worker done" (spawn_workers prim ~nthreads:1 ~txs:8 ~committed);
         ignore (Rep.drain c);
         Rep.sync_followers c;
         Rep.stop c));
  ignore (Rep.promote c);
  let phase name =
    List.find_opt
      (fun p -> p.Trace.ph_cat = "replica" && p.Trace.ph_name = name)
      (Trace.phases ())
  in
  (match phase "ship" with
  | Some p -> check Alcotest.bool "ship spans recorded" true (p.Trace.ph_count > 0)
  | None -> Alcotest.fail "no replica.ship spans");
  (match phase "apply" with
  | Some p -> check Alcotest.bool "apply spans recorded" true (p.Trace.ph_count > 0)
  | None -> Alcotest.fail "no replica.apply spans");
  (match phase "promote" with
  | Some p -> check Alcotest.int "one promotion span" 1 p.Trace.ph_count
  | None -> Alcotest.fail "no replica.promote span");
  (match
     List.find_opt (fun a -> a.Trace.lk_link = "ship:replica0") (Trace.link_accts ())
   with
  | Some a ->
    check Alcotest.bool "ship link accounted bytes" true (a.Trace.lk_bytes > 0);
    check Alcotest.bool "ship link accounted frames" true (a.Trace.lk_frames > 0)
  | None -> Alcotest.fail "no per-link byte accounting for ship:replica0");
  let summary = Trace.summary_json () in
  let has needle =
    let n = String.length needle and l = String.length summary in
    let rec go i = i + n <= l && (String.sub summary i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "summary exports the links section" true (has "\"links\"")

let test_link_transfer_zero_alloc_when_disabled () =
  assert (not (Trace.enabled ()));
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    Trace.link_transfer ~link:"ship:replica0" ~bytes:i ~cycles:i
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 64.0 then
    Alcotest.failf "disabled link_transfer allocated %.0f minor words" delta

(* ----------------------------- campaign ---------------------------------- *)

let test_campaign_clean () =
  match Check.run ~budget:Check.Smoke "replica" [ ("txs", "6") ] with
  | Check.Pass r ->
    check Alcotest.bool "swept multiple runs" true (r.Check.runs > 10 && r.Check.boundaries > 0)
  | Check.Fail f ->
    Alcotest.failf "campaign failed: %s (replay: %s)" f.Check.reason (Check.replay_line f)

let test_campaign_catches_skip_quorum_gate () =
  match
    Check.run ~budget:Check.Smoke ~mutant:Dudetm_sim.Inject.Skip_quorum_gate "replica" [ ("txs", "6") ]
  with
  | Check.Pass _ -> Alcotest.fail "campaign missed the Skip_quorum_gate mutant"
  | Check.Fail f ->
    check Alcotest.bool "failure is attributed to a primary kill" true (f.Check.cuts <> []);
    let line = Check.replay_line f in
    let has needle =
      let n = String.length needle and l = String.length line in
      let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "replay line pins the mutant" true (has "--mutate skip-quorum-gate");
    check Alcotest.bool "replay line pins the crash site" true (has "--crash-at")

let suite =
  [
    Alcotest.test_case "replica: wire frames roundtrip" `Quick test_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_in_place_matches_reference;
    Alcotest.test_case "replica: CRC rejects any single-bit flip" `Quick
      test_wire_crc_rejects_any_flip;
    Alcotest.test_case "replica: link faults are seeded and deterministic" `Quick
      test_link_faults_deterministic;
    Alcotest.test_case "replica: partitioned link drops at the sender" `Quick
      test_link_partition_drops;
    Alcotest.test_case "replica: retransmit timer follows the link" `Quick
      test_retransmit_timer_follows_link;
    Alcotest.test_case "replica: quorum math" `Quick test_quorum_math;
    Alcotest.test_case "replica: config validation" `Quick test_create_validates;
    Alcotest.test_case "replica: follower ingest copies no payload" `Quick
      test_ingest_allocation_guard;
    Alcotest.test_case "replica: Reproduce redoes an item from its bytes" `Quick
      test_redo_allocation_guard;
    Alcotest.test_case "replica: follower rings equal the primary's" `Quick
      test_follower_rings_identical;
    Alcotest.test_case "replica: K=1 degenerates to the unreplicated engine" `Quick
      test_k1_matches_unreplicated;
    Alcotest.test_case "replica: hostile links — dedup, CRC, retransmit, converge" `Quick
      test_faulty_links_end_to_end;
    Alcotest.test_case "replica: promotion truncates to the quorum prefix" `Quick
      test_promotion_truncates_to_quorum_prefix;
    Alcotest.test_case "replica: bounded waits, explicit degradation, heal" `Quick
      test_degraded_mode_and_heal;
    Alcotest.test_case "replica: retention cap cuts off the laggard" `Quick
      test_retention_cap_cuts_off_laggard;
    Alcotest.test_case "replica: trace spans and per-link accounting" `Quick
      test_trace_spans_and_link_accounting;
    Alcotest.test_case "replica: disabled link_transfer allocates nothing" `Quick
      test_link_transfer_zero_alloc_when_disabled;
    Alcotest.test_case "replica: failover campaign passes" `Slow test_campaign_clean;
    Alcotest.test_case "replica: campaign catches Skip_quorum_gate" `Quick
      test_campaign_catches_skip_quorum_gate;
  ]
