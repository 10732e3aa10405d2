(* Read-only snapshot transactions over the TinySTM time base.

   A snapshot transaction takes an epoch from the global version clock and
   reads directly through the shadow store, validating each read against
   the versioned lock table exactly as TinySTM does — but it never acquires
   a lock, never keeps an undo list, and never draws a commit timestamp, so
   it is invisible to writers and free of the whole commit machinery.  The
   read-set invariant is maintained incrementally: every recorded read was
   consistent at [epoch] when it happened, and [epoch] only moves forward
   through a validated extension, so by the time the body returns, the
   whole read-set is a consistent cut at the final epoch and "commit" is a
   no-op.

   The optional [pin] thunk turns the snapshot into a durable-only (DUMBO-
   style) reader: the epoch may never exceed the pinned watermark, so a
   read that observes a stripe version above it waits for durability to
   catch up instead of sliding to the volatile clock.  Every value such a
   snapshot returns was written by a transaction at or below the watermark
   at the moment of the read — i.e. state that survives a power cut. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Trace = Dudetm_trace.Trace
module K = Stm_kernel

type ro = {
  tm : K.t;
  pin : (unit -> int) option;
  mutable epoch : int;
  mutable reads : (int * int) list;  (* (stripe, observed version) *)
  mutable active : bool;
}

let begin_ro ?pin (tm : K.t) =
  Sched.advance tm.costs.Tm_intf.begin_cost;
  let epoch =
    match pin with
    | Some w -> min (w ()) tm.clock
    | None -> tm.clock
  in
  Trace.instant ~cat:"snapshot" "begin" epoch;
  Stats.incr tm.stats "snapshot_begins";
  { tm; pin; epoch; reads = []; active = true }

let epoch ro = ro.epoch

let read_set_size ro = List.length ro.reads

let restart ro =
  Stats.incr ro.tm.stats "snapshot_retries";
  Trace.instant ~cat:"snapshot" "retry" ro.epoch;
  ro.active <- false;
  raise K.Retry

(* Slide the epoch forward far enough to admit a stripe at version [need].
   Fresh-epoch snapshots extend to the current clock; pinned snapshots
   first wait for the watermark to reach [need] (durability always catches
   up — the group-commit deadline bounds the wait), then extend to it.
   Extension revalidates the read-set; the seeded [Skip_snapshot_validate]
   mutant omits exactly this step and lets a reader carry values from two
   different epochs. *)
let extend ro ~need =
  Stats.incr ro.tm.stats "snapshot_extends";
  Trace.instant ~cat:"snapshot" "extend" need;
  (match ro.pin with
  | None -> ()
  | Some w ->
    if w () < need then
      Sched.wait_until ~label:"snapshot durable pin" (fun () -> w () >= need));
  let target =
    match ro.pin with
    | None -> ro.tm.clock
    | Some w -> min (w ()) ro.tm.clock
  in
  if not (Dudetm_sim.Inject.armed Skip_snapshot_validate || K.valid ro.tm ~held:[] ro.reads) then
    restart ro;
  if target > ro.epoch then ro.epoch <- target

let read ro addr =
  if not ro.active then invalid_arg "Snapshot.read: snapshot not active";
  let tm = ro.tm in
  Sched.advance tm.costs.Tm_intf.read_cost;
  Stats.incr tm.stats "snapshot_reads";
  Trace.sample ~cat:"snapshot" "read" tm.costs.Tm_intf.read_cost;
  let stripe = Lock_table.stripe_of_addr tm.locks addr in
  let rec go () =
    let v = K.version tm stripe in
    if v < 0 then begin
      (* A writer holds the stripe (store may carry uncommitted data).
         Wait for the release — bounded by that writer's commit/abort —
         without touching the lock word ourselves. *)
      Sched.wait_until ~label:"snapshot stripe owned" (fun () -> K.version tm stripe >= 0);
      go ()
    end
    else if v <= ro.epoch then begin
      let value = tm.store.Tm_intf.load addr in
      (* The load may yield (paged shadow access costs, swap-in waits), so
         re-check the lock word afterwards: if a writer slipped in, the
         loaded value may be newer than the recorded version — retry the
         read rather than record a lie. *)
      if K.version tm stripe = v then begin
        ro.reads <- (stripe, v) :: ro.reads;
        value
      end
      else go ()
    end
    else begin
      extend ro ~need:v;
      (* Extension may have yielded (durable pin): re-examine the stripe. *)
      go ()
    end
  in
  go ()

let abort ro =
  ro.active <- false;
  raise Tm_intf.User_abort

let finish ro =
  (* No validation, no ID draw: the per-read invariant already makes the
     read-set a consistent cut at [epoch]. *)
  ro.active <- false;
  ro.epoch

let run ?pin ?on_retry tm f =
  K.run ?on_retry tm K.Snapshot
    ~start:(begin_ro ?pin)
    ~finish:(fun ro ->
      let final = finish ro in
      Stats.incr ro.tm.stats "snapshot_commits";
      final)
    ~abandon:(fun ro -> ro.active <- false)
    f
