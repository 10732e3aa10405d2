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

   The optional [pin] turns the snapshot into a durable-only (DUMBO-style)
   reader: the epoch may never exceed the pinned watermark, so a read that
   observes a stripe version above it waits for durability to catch up,
   parked on the pin's conds, instead of sliding to the volatile clock.
   Every value such a snapshot returns was written by a transaction at or
   below the watermark at the moment of the read — i.e. state that
   survives a power cut. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Trace = Dudetm_trace.Trace
module K = Stm_kernel

type ro = {
  tm : K.t;
  pin : Tm_intf.pin option;
  mutable epoch : int;
  mutable reads : K.versions;
  mutable active : bool;
}

let begin_ro ?pin (tm : K.t) =
  Sched.advance Tm_intf.default_costs.begin_cost;
  let epoch =
    match pin with
    | Some p -> min (p.Tm_intf.watermark ()) tm.clock
    | None -> tm.clock
  in
  Trace.instant ~cat:"snapshot" "begin" epoch;
  Stats.incr tm.stats "snapshot_begins";
  { tm; pin; epoch; reads = K.Nil; active = true }

let epoch ro = ro.epoch

let rec count n = function K.Nil -> n | K.Entry e -> count (n + 1) e.next

let read_set_size ro = count 0 ro.reads

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
  | Some { watermark; on } ->
    if watermark () < need then
      Sched.wait_on on ~label:"snapshot durable pin" (fun () -> watermark () >= need));
  let target =
    match ro.pin with
    | None -> ro.tm.clock
    | Some p -> min (p.watermark ()) ro.tm.clock
  in
  if not (Dudetm_sim.Inject.armed Skip_snapshot_validate || K.valid ro.tm ~held:K.Nil ro.reads)
  then restart ro;
  if target > ro.epoch then ro.epoch <- target

(* A top-level loop with explicit arguments: a read allocates only its
   read-set entry. *)
let rec read_stripe ro addr stripe =
  let tm = ro.tm in
  let v = K.version tm stripe in
  if v < 0 then begin
    (* A writer holds the stripe (store may carry uncommitted data).
       Wait for the release — bounded by that writer's commit/abort —
       without touching the lock word ourselves. *)
    Sched.wait_until ~label:"snapshot stripe owned" (fun () -> K.version tm stripe >= 0);
    read_stripe ro addr stripe
  end
  else if v <= ro.epoch then begin
    let value = tm.store.Tm_intf.load addr in
    (* The load may yield (paged shadow access costs, swap-in waits), so
       re-check the lock word afterwards: if a writer slipped in, the
       loaded value may be newer than the recorded version — retry the
       read rather than record a lie. *)
    if K.version tm stripe = v then begin
      ro.reads <- K.Entry { stripe; version = v; next = ro.reads };
      value
    end
    else read_stripe ro addr stripe
  end
  else begin
    extend ro ~need:v;
    (* Extension may have yielded (durable pin): re-examine the stripe. *)
    read_stripe ro addr stripe
  end

let read ro addr =
  if not ro.active then invalid_arg "Snapshot.read: snapshot not active";
  let tm = ro.tm in
  Sched.advance Tm_intf.default_costs.read_cost;
  Stats.incr tm.stats "snapshot_reads";
  Trace.sample ~cat:"snapshot" "read" Tm_intf.default_costs.read_cost;
  read_stripe ro addr (Lock_table.stripe_of_addr tm.locks addr)

let abort ro =
  ro.active <- false;
  raise Tm_intf.User_abort

let finish ro =
  (* No validation, no ID draw: the per-read invariant already makes the
     read-set a consistent cut at [epoch]. *)
  ro.active <- false;
  ro.epoch

let begin_fresh tm = begin_ro tm

let commit ro =
  let final = finish ro in
  Stats.incr ro.tm.stats "snapshot_commits";
  final

let deactivate ro = ro.active <- false

(* A fresh-epoch snapshot starts from a top-level function; only a pinned
   one builds a closure over its pin. *)
let run ?pin ?on_retry tm f =
  let start = match pin with None -> begin_fresh | Some _ -> begin_ro ?pin in
  K.run ?on_retry tm K.Snapshot ~start ~finish:commit ~abandon:deactivate f
