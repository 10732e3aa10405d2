(* Write-through access on the versioned-lock kernel: encounter-time
   locking, in-place stores and a volatile undo list. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module K = Stm_kernel

type t = K.t

type tx = K.tx

let create_with_bits ?seed ~bits store = K.create ?seed ~bits store

let create ?seed store = K.create ?seed store

let begin_tx = K.begin_tx

let read (tx : tx) addr =
  K.check_active tx "Tinystm.read";
  Sched.advance Tm_intf.default_costs.read_cost;
  Stats.incr tx.tm.stats "reads";
  K.read tx addr

let write (tx : tx) addr value =
  K.check_active tx "Tinystm.write";
  Sched.advance Tm_intf.default_costs.write_cost;
  Stats.incr tx.tm.stats "writes";
  let store = tx.tm.store in
  if not (K.lock tx (Lock_table.stripe_of_addr tx.tm.locks addr)) then K.conflict tx;
  tx.undo <- K.Undo { addr; old = store.Tm_intf.load addr; next = tx.undo };
  store.Tm_intf.store addr value

let user_abort = K.user_abort

let rec undo_length n = function K.No_undo -> n | K.Undo u -> undo_length (n + 1) u.next

(* Every write pushed one undo entry, so the undo list counts the writes
   the commit charges for. *)
let commit (tx : tx) =
  K.check_active tx "Tinystm.commit";
  K.commit tx ~writes:(undo_length 0 tx.undo) ~stripes:[]

let run ?on_retry tm f =
  K.run ?on_retry tm K.Write ~start:K.begin_tx ~finish:commit ~abandon:K.abandon f

let last_tid (tm : t) = tm.clock

let stats (tm : t) = tm.stats

type ro = Snapshot.ro

let run_ro = Snapshot.run

let ro_read = Snapshot.read

let ro_epoch = Snapshot.epoch

let ro_abort = Snapshot.abort
