module Sched = Dudetm_sim.Sched

type t = {
  mutable arr : Log_entry.t array;
  mutable cap : int;
  unbounded : bool;
  mutable head : int;  (* monotone counters; slot = counter mod cap *)
  mutable committed : int;
  mutable tail : int;
  mutable total_appended : int;
  mutable producer_blocks : int;
  (* Signalled wherever [length] falls: the producer blocked on a full
     buffer parks on it. *)
  space : Sched.cond;
  space_on : Sched.cond list;
}

let dummy = Log_entry.Tx_end { tid = 0 }

let create ?(unbounded = false) ~capacity () =
  if capacity < 2 then invalid_arg "Vlog.create: capacity too small";
  let space = Sched.cond () in
  {
    arr = Array.make capacity dummy;
    cap = capacity;
    unbounded;
    head = 0;
    committed = 0;
    tail = 0;
    total_appended = 0;
    producer_blocks = 0;
    space;
    space_on = [ space ];
  }

let capacity t = t.cap

let unbounded t = t.unbounded

let length t = t.tail - t.head

let slot t pos = pos mod t.cap

let grow t =
  let ncap = t.cap * 2 in
  let narr = Array.make ncap dummy in
  for pos = t.head to t.tail - 1 do
    narr.(pos mod ncap) <- t.arr.(slot t pos)
  done;
  t.arr <- narr;
  t.cap <- ncap

let push t e =
  t.arr.(slot t t.tail) <- e;
  t.tail <- t.tail + 1;
  t.total_appended <- t.total_appended + 1

let append t e =
  (match e with
  | Log_entry.Tx_end _ -> invalid_arg "Vlog.append: use append_end for end marks"
  | Log_entry.Write _ | Log_entry.Alloc _ | Log_entry.Free _ | Log_entry.Cross _ -> ());
  if length t = t.cap then
    if t.unbounded then grow t
    else if t.tail - t.committed >= t.cap then
      (* The running transaction alone fills the ring: waiting would
         deadlock (the consumer can only take sealed transactions). *)
      invalid_arg "Vlog.append: transaction exceeds the buffer capacity"
    else begin
      t.producer_blocks <- t.producer_blocks + 1;
      Sched.wait_until ~on:t.space_on ~label:"vlog full" (fun () -> length t < t.cap)
    end;
  push t e

let append_end t ~tid =
  if length t = t.cap then
    if t.unbounded then grow t
    else begin
      t.producer_blocks <- t.producer_blocks + 1;
      Sched.wait_until ~on:t.space_on ~label:"vlog full (end mark)" (fun () ->
          length t < t.cap)
    end;
  push t (Log_entry.Tx_end { tid });
  t.committed <- t.tail

let pop_current_tx t =
  t.tail <- t.committed;
  Sched.signal t.space

let current_tx_entries t = t.tail - t.committed

let head t = t.head

let committed t = t.committed

let get t pos =
  if pos < t.head || pos >= t.tail then invalid_arg "Vlog.get: position out of window";
  t.arr.(slot t pos)

let consume_to t pos =
  if pos < t.head || pos > t.committed then invalid_arg "Vlog.consume_to: bad position";
  t.head <- pos;
  Sched.signal t.space

let clear t =
  t.head <- 0;
  t.committed <- 0;
  t.tail <- 0;
  Sched.signal t.space

let total_appended t = t.total_appended

let producer_blocks t = t.producer_blocks
