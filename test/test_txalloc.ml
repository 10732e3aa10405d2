(* What a transaction allocates, layer by layer.

   Each guard measures one call of the Perform-side transaction path on
   an unstarted stack (engines built but no daemon spawned, outside
   [Sched.run]), so no daemon adds words and [Sched.advance] is a no-op.
   The figures are [Test_plog.allocated] over a loop of calls, less what
   an empty reading counts, per call. *)

module Config = Dudetm_core.Config
module Tm_intf = Dudetm_tm.Tm_intf
module Tinystm = Dudetm_tm.Tinystm
module Serve = Dudetm_serve.Serve
module SL = Dudetm_serve.Serve_load
module Srv = SL.Srv
module Sh = Srv.Sh
module E = Sh.Engine

let per_call n f =
  let loop = Test_plog.allocated (fun () -> for _ = 1 to n do f () done) in
  (loop -. Test_plog.allocated ignore) /. float_of_int n

let guard what ~limit words =
  if words > limit then Alcotest.failf "%s: %.1f words allocated (limit %.0f)" what words limit

(* The lookup-8s stack: 8 shards, each a paged shadow of 16 frames over a
   1 MiB heap. *)
let paged_8 () =
  let cfg =
    { (SL.engine_cfg ~workers:2 ()) with Config.heap_size = 1 lsl 20; shadow_frames = Some 16 }
  in
  Sh.create ~nshards:8 cfg

let flat_1 () = Sh.create ~nshards:1 (SL.engine_cfg ~workers:2 ())

let slot key = 64 + (8 * Int64.to_int key)

let app =
  {
    Srv.shard_of = (fun key -> Int64.to_int key land 7);
    write = (fun tx ~shard ~key ~payload -> Sh.write tx ~shard (slot key) payload);
    read = (fun tx ~shard ~key -> Sh.read tx ~shard (slot key));
  }

(* The admission gate asks every shard's engine on every submit, and
   every write transaction asks its own.  It took 10.0 words per call (an
   [Array.exists] closure over a boxed float); now 0. *)
let test_ring_pressure () =
  let e = Sh.engine (flat_1 ()) 0 in
  guard "Engine.ring_pressure" ~limit:0. (per_call 1000 (fun () -> ignore (E.ring_pressure e)))

(* A read's [Srv.submit] on 8 shards took 89.3 words (80 of them the
   pressure scan's closures); now 3.3, the queue cell.  Forty descriptors
   stay below the queue's capacity, so none is shed. *)
let test_submit_read () =
  let srv = Srv.create ~app ~ntenants:1 (paged_8 ()) in
  let n = 40 in
  let descs =
    Array.init n (fun i ->
        Srv.make_desc ~tenant:0 ~session:0 (Serve.Read { key = Int64.of_int i }))
  in
  let i = ref 0 in
  guard "Srv.submit (read, 8 shards)" ~limit:8.
    (per_call n (fun () ->
         ignore (Srv.submit srv descs.(!i));
         incr i))

(* A one-read snapshot through Shard, Engine and TM on the paged 8-shard
   stack took 109.0 words; now 45.0. *)
let test_atomically_ro () =
  let sh = paged_8 () in
  let read () =
    ignore (Sh.atomically_ro sh ~thread:0 ~shard:3 (fun tx -> Sh.read tx ~shard:3 64))
  in
  read ();
  guard "Sh.atomically_ro (one read, paged, 8 shards)" ~limit:60. (per_call 1000 read)

(* A one-write transaction on a flat 1-shard stack took 152.0 words; now
   68.0.  Each transaction leaves two entries in the unstarted
   engine's volatile log, so the loop stays below its capacity. *)
let test_atomically_write () =
  let sh = flat_1 () in
  let write () =
    ignore (Sh.atomically sh ~thread:0 ~shards:[ 0 ] (fun tx -> Sh.write tx ~shard:0 64 5L))
  in
  write ();
  guard "Sh.atomically (one write, flat, 1 shard)" ~limit:100. (per_call 300 write)

(* A one-write TinySTM transaction took 26 words: the begin record (8),
   the held-stripe entry (4), an option around the stripe's old version
   from [Lock_table.acquire] (2), the undo entry (4), the boxed old value
   (3) and the result (5).  The lock table now answers with a plain int,
   so the option is gone. *)
let test_tinystm_write () =
  let tm = Tinystm.create (Tm_intf.mem_store (Bytes.make 4096 '\000')) in
  let write () = ignore (Tinystm.run tm (fun tx -> Tinystm.write tx 64 5L)) in
  write ();
  guard "Tinystm.run (one write)" ~limit:24. (per_call 1000 write)

let suite =
  [
    Alcotest.test_case "a one-write TinySTM transaction" `Quick test_tinystm_write;
    Alcotest.test_case "ring pressure allocates nothing" `Quick test_ring_pressure;
    Alcotest.test_case "a read's submit" `Quick test_submit_read;
    Alcotest.test_case "a one-read snapshot" `Quick test_atomically_ro;
    Alcotest.test_case "a one-write transaction" `Quick test_atomically_write;
  ]
