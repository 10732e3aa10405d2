(* A crash-safe multi-producer/multi-consumer FIFO queue built directly on
   the DudeTM API: head/tail cursors and a linked list of cells, all in
   persistent memory, mutated only inside durable transactions.

     dune exec examples/persistent_queue.exe

   Shows composition of pmalloc/pfree with reads/writes in one transaction
   (dequeue frees the consumed cell atomically with the cursor move), and
   that the structure survives a mid-run power failure: after recovery, the
   set of consumed + queued items is exactly the durable prefix. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

(* Root block layout: head cell @0, tail cell @8, enqueued count @16,
   dequeued-sum @24 (an order-insensitive digest of consumed items).
   Cell layout: value @0, next @8. *)
let cfg = { Config.default with Config.nthreads = 4; heap_size = 1 lsl 20 }

let enqueue t ~thread value =
  ignore
    (D.atomically t ~thread (fun tx ->
         let cell = D.pmalloc tx 16 in
         D.write tx cell value;
         D.write tx (cell + 8) 0L;
         let tail = Int64.to_int (D.read tx 8) in
         if tail = 0 then D.write tx 0 (Int64.of_int cell) (* empty queue *)
         else D.write tx (tail + 8) (Int64.of_int cell);
         D.write tx 8 (Int64.of_int cell);
         D.write tx 16 (Int64.add (D.read tx 16) 1L)))

let dequeue t ~thread =
  match
    D.atomically t ~thread (fun tx ->
        let head = Int64.to_int (D.read tx 0) in
        if head = 0 then None
        else begin
          let value = D.read tx head in
          let next = D.read tx (head + 8) in
          D.write tx 0 next;
          if next = 0L then D.write tx 8 0L;
          (* Consume the digest and free the cell in the same atomic,
             durable transaction: no item can be lost or doubled. *)
          D.write tx 24 (Int64.add (D.read tx 24) value);
          D.pfree tx ~off:head ~len:16;
          Some value
        end)
  with
  | Some (r, _) -> r
  | None -> None

let queue_state t =
  let rec walk cell acc =
    if cell = 0 then acc
    else
      walk (Int64.to_int (D.heap_read_u64 t (cell + 8))) (Int64.add acc (D.heap_read_u64 t cell))
  in
  let queued_sum = walk (Int64.to_int (D.heap_read_u64 t 0)) 0L in
  let enq = D.heap_read_u64 t 16 in
  let consumed_sum = D.heap_read_u64 t 24 in
  (enq, queued_sum, consumed_sum)

let () =
  print_endline "== crash-safe MPMC queue on DudeTM ==";
  let t = D.create cfg in
  (* Producers enqueue distinct values 1..N; consumers drain concurrently.
     Invariant: consumed_sum + queued_sum = sum of enqueued values. *)
  ignore
    (Sched.run (fun () ->
         D.start t;
         for p = 0 to 1 do
           ignore
             (Sched.spawn (Printf.sprintf "producer-%d" p) (fun () ->
                  let i = ref 0 in
                  while true do
                    incr i;
                    enqueue t ~thread:p (Int64.of_int ((p * 1_000_000) + !i))
                  done))
         done;
         for c = 2 to 3 do
           ignore
             (Sched.spawn (Printf.sprintf "consumer-%d" c) (fun () ->
                  while true do
                    ignore (dequeue t ~thread:c);
                    Sched.advance 500
                  done))
         done;
         Sched.advance 400_000;
         Sched.halt ()));
  print_endline "-- power failure mid-run (30% of dirty cache lines leak) --";
  Nvm.crash ~evict_fraction:0.3 ~rng:(Rng.create 9) (D.nvm t);
  let t2, report = D.attach cfg (D.nvm t) in
  Printf.printf "recovered durable id %d (replayed %d)\n" report.Dudetm_core.Dudetm.durable
    report.Dudetm_core.Dudetm.replayed_txs;
  let enq, queued_sum, consumed_sum = queue_state t2 in
  Printf.printf "enqueued: %Ld items; in queue: sum %Ld; consumed: sum %Ld\n" enq queued_sum
    consumed_sum;
  (* Drain the recovered queue and re-check conservation. *)
  let expected_total = Int64.add queued_sum consumed_sum in
  ignore
    (Sched.run (fun () ->
         D.start t2;
         while dequeue t2 ~thread:0 <> None do
           ()
         done;
         D.drain t2;
         D.stop t2));
  let _, queued_after, consumed_after = queue_state t2 in
  Printf.printf "after draining: in queue %Ld, consumed sum %Ld\n" queued_after consumed_after;
  if queued_after = 0L && consumed_after = expected_total then
    print_endline "OK: no item was lost or duplicated across the crash."
  else begin
    print_endline "FAILURE: queue conservation violated!";
    exit 1
  end
