(* Write-back access on the versioned-lock kernel: buffered writes applied
   under commit-time locking, reads redirected through the buffer. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module K = Stm_kernel

type t = K.t

type tx = K.wb

(* The write-set hash probe write-back access adds to every read. *)
let redirect_cost = 18

let create ?seed store = K.create ?seed store

let begin_tx = K.begin_wb

let read (w : tx) addr =
  let tm = w.tx.tm in
  K.check_active w.tx "Tinystm_wb.read";
  Sched.advance (Tm_intf.default_costs.read_cost + redirect_cost);
  Stats.incr tm.stats "reads";
  K.wb_read w addr

let write (w : tx) addr value =
  let tm = w.tx.tm in
  K.check_active w.tx "Tinystm_wb.write";
  Sched.advance Tm_intf.default_costs.write_cost;
  Stats.incr tm.stats "writes";
  K.wb_write w addr value

(* Nothing to undo: the store was never touched. *)
let user_abort (w : tx) = K.user_abort w.tx

let commit (w : tx) =
  K.check_active w.tx "Tinystm_wb.commit";
  K.wb_commit w ~publish:(fun tm ->
      List.iter
        (fun addr -> tm.K.store.Tm_intf.store addr (Hashtbl.find w.wbuf addr))
        (List.rev w.worder);
      K.tick tm)

let run ?on_retry tm f =
  K.run ?on_retry tm K.Write ~start:K.begin_wb ~finish:commit
    ~abandon:(fun (w : tx) -> K.abandon w.tx)
    f

let last_tid (tm : t) = tm.clock

let stats (tm : t) = tm.stats

(* Write-back commit still publishes through the same versioned lock table
   and clock, so the snapshot reader drops in unchanged: an owned stripe
   means a commit is mid-publication and the reader waits it out. *)

type ro = Snapshot.ro

let run_ro = Snapshot.run

let ro_read = Snapshot.read

let ro_epoch = Snapshot.epoch

let ro_abort = Snapshot.abort
