(* The TM every workload runs on: TinySTM behind a wrapper that, in the
   traced run only, times each write transaction's body (first attempt
   start -> commit) and tells the workload which fiber just committed.  It
   only reads the simulated clock and never advances it, so the traced
   run's simulated metrics equal the untraced run's. *)

module Sched = Dudetm_sim.Sched

module Tm = struct
  include Dudetm_tm.Tinystm

  let on = ref false

  let bodies = Samples.create ()

  (* Called on the committing fiber right after a write transaction's
     commit, while [on]. *)
  let on_commit : (unit -> unit) ref = ref ignore

  let run ?on_retry t f =
    if not !on then run ?on_retry t f
    else begin
      let start = Sched.now () in
      let r = run ?on_retry t f in
      (match r with
      | Some (_, tid) when tid > 0 ->
        Samples.add bodies (Sched.now () - start);
        !on_commit ()
      | _ -> ());
      r
    end
end

(* Switching on starts a fresh body sample; switching off drops the commit
   hook. *)
let enable b =
  Tm.on := b;
  if b then Samples.clear Tm.bodies else Tm.on_commit := ignore
