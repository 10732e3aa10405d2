(* Live migration of a bucket range between shards, under traffic.

   The protocol decouples like the engine itself does:

   1. {b Copy} — [begin_migration] seals a Copy handoff record, then opens
      a {e double-write window}: every application transaction touching
      the migrating range commits a cross-shard fragment pair to {e both}
      owners (source authoritative, destination catching up), while
      [copy_step] walks the keyspace shipping the source's committed
      values to the destination in chunked cross-shard transactions.
      Cross transactions serialize under the global cross lock, so a copy
      chunk and a double-write can never interleave on the same key.

   2. {b Flip} — [flip] quiesces new range traffic, waits until every
      window transaction is durable (global frontier at or past the last
      window gtid), then seals Flip, the new partition descriptor (stamped
      with the handoff epoch), and Cleanup — in that order — before
      switching volatile routing to the destination.

   3. {b Cleanup} — [cleanup_step] lazily zeroes the source's slots for
      the moved range in ordinary transactions, then seals Idle.

   Recovery ([attach]) reads the handoff record back and votes by phase:
   Copy means the flip never sealed — the source is still sole authority
   and the destination's partial copy is unreachable scratch, so roll
   back; Flip means the decision is durable — reseal the descriptor if
   the cut hit between the two seals and resume cleanup; Cleanup means
   only source recycling remains.  Every step re-executes idempotently,
   so nested crashes during recovery converge. *)

module Config = Dudetm_core.Config
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Trace = Dudetm_trace.Trace
module Partition = Dudetm_workloads.Partition

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  module Sh = Shard.Make (Tm)

  type resume = Clean | Rolled_back of Handoff.plan | Resumed of Handoff.plan

  type t = {
    sh : Sh.t;
    hj : Handoff.t;
    nkeys : int;
    slot_of : int -> int;
    mutable part : Partition.t;  (* volatile routing *)
    mutable window : Handoff.plan option;  (* double-write window open *)
    mutable cleanup : Handoff.plan option;  (* flipped; src recycle pending *)
    mutable copy_next : int;
    mutable cleanup_next : int;
    mutable last_window_gtid : int;
    mutable range_active : int;  (* in-flight app txs on the migrating range *)
    mutable flipping : bool;
    mutable last_cleanup : Sh.ack option;
  }

  let sealing () = not (Dudetm_sim.Inject.armed Skip_handoff_seal)

  let in_plan t (pl : Handoff.plan) k =
    let b = Partition.bucket_of t.part (Int64.of_int k) in
    b >= pl.blo && b < pl.bhi

  (* ------------------------------------------------------------------ *)
  (* Lifecycle                                                           *)
  (* ------------------------------------------------------------------ *)

  let make sh hj ~nkeys ~slot_of =
    {
      sh;
      hj;
      nkeys;
      slot_of;
      part = Handoff.partition hj;
      window = None;
      cleanup = None;
      copy_next = 0;
      cleanup_next = 0;
      last_window_gtid = 0;
      range_active = 0;
      flipping = false;
      last_cleanup = None;
    }

  let create sh ~part ~nkeys ~slot_of =
    if Partition.nshards part <> Sh.nshards sh then
      invalid_arg "Migrate: partition shard count mismatch";
    (match Partition.scheme part with
    | Partition.Buckets _ -> ()
    | _ -> invalid_arg "Migrate: partition must use the Buckets scheme");
    let base = Config.hjournal_base (Sh.config sh) in
    let hj = Handoff.format (Sh.nvm sh 0) ~base ~part ~epoch:1 in
    make sh hj ~nkeys ~slot_of

  let attach sh ~nkeys ~slot_of =
    let base = Config.hjournal_base (Sh.config sh) in
    let hj = Handoff.attach (Sh.nvm sh 0) ~base ~nshards:(Sh.nshards sh) in
    let t = make sh hj ~nkeys ~slot_of in
    let resume =
      Trace.span ~cat:"migrate" "replay" @@ fun () ->
      match Handoff.state hj with
      | None -> Clean
      | Some (pl, Handoff.Copy) ->
        Handoff.seal_handoff hj None;
        Stats.incr (Sh.stats sh) "migrations_rolled_back";
        Rolled_back pl
      | Some (pl, Handoff.Flip) ->
        let part' =
          Partition.with_owner (Handoff.partition hj) ~blo:pl.blo ~bhi:pl.bhi
            ~owner:pl.dst
        in
        if Handoff.epoch hj < pl.epoch then
          Handoff.seal_descriptor hj part' ~epoch:pl.epoch;
        Handoff.seal_handoff hj (Some (pl, Handoff.Cleanup));
        t.part <- Handoff.partition hj;
        t.cleanup <- Some pl;
        t.cleanup_next <- 0;
        Stats.incr (Sh.stats sh) "migrations_rolled_forward";
        Resumed pl
      | Some (pl, Handoff.Cleanup) ->
        t.cleanup <- Some pl;
        t.cleanup_next <- 0;
        Resumed pl
    in
    (t, resume)

  let partition t = t.part

  let epoch t = Handoff.epoch t.hj

  let owner t key = Partition.shard_of t.part (Int64.of_int key)

  let migrating t =
    match (t.window, t.cleanup) with
    | Some pl, _ -> Some (pl, Handoff.Copy)
    | None, Some pl -> Some (pl, Handoff.Cleanup)
    | None, None -> None

  (* ------------------------------------------------------------------ *)
  (* Routed application transactions                                     *)
  (* ------------------------------------------------------------------ *)

  let apply t ~thread ~key f =
    if key < 0 || key >= t.nkeys then invalid_arg "Migrate: key out of range";
    let off = t.slot_of key in
    (* Hold new range traffic while the flip seals; everything already in
       flight is counted in [range_active] and the flip waits it out. *)
    Sched.wait_until ~label:"migrate.flip quiesce" (fun () ->
        (not t.flipping)
        || (match t.window with Some pl -> not (in_plan t pl key) | None -> true));
    match t.window with
    | Some pl when in_plan t pl key ->
      t.range_active <- t.range_active + 1;
      Fun.protect ~finally:(fun () -> t.range_active <- t.range_active - 1)
      @@ fun () ->
      let r =
        Sh.atomically t.sh ~thread ~shards:[ pl.src; pl.dst ] (fun tx ->
            let v = f (Sh.read tx ~shard:pl.src off) in
            Sh.write tx ~shard:pl.src off v;
            Sh.write tx ~shard:pl.dst off v;
            v)
      in
      (match r with
      | Some (_, Sh.Ack_cross { gtid }) ->
        if gtid > t.last_window_gtid then t.last_window_gtid <- gtid;
        Stats.incr (Sh.stats t.sh) "migrate_double_writes"
      | Some _ | None -> ());
      r
    | _ ->
      let s = Partition.shard_of t.part (Int64.of_int key) in
      Sh.atomically t.sh ~thread ~shards:[ s ] (fun tx ->
          let v = f (Sh.read tx ~shard:s off) in
          Sh.write tx ~shard:s off v;
          v)

  (* ------------------------------------------------------------------ *)
  (* The migration itself                                                *)
  (* ------------------------------------------------------------------ *)

  let begin_migration t ~src ~dst ~blo ~bhi =
    if t.window <> None || t.cleanup <> None then
      invalid_arg "Migrate: a migration is already in progress";
    let n = Sh.nshards t.sh in
    if src < 0 || src >= n || dst < 0 || dst >= n || src = dst then
      invalid_arg "Migrate: bad source or destination shard";
    let owners = Partition.owners t.part in
    if blo < 0 || bhi > Array.length owners || blo >= bhi then
      invalid_arg "Migrate: bad bucket range";
    for b = blo to bhi - 1 do
      if owners.(b) <> src then invalid_arg "Migrate: range not owned by source"
    done;
    let pl = { Handoff.src; dst; blo; bhi; epoch = Handoff.epoch t.hj + 1 } in
    if sealing () then Handoff.seal_handoff t.hj (Some (pl, Handoff.Copy));
    t.window <- Some pl;
    t.copy_next <- 0;
    t.last_window_gtid <- 0;
    Trace.instant ~cat:"migrate" "begin" pl.epoch;
    Stats.incr (Sh.stats t.sh) "migrations_started"

  (* Up to [chunk] keys of the plan's range starting at [from], plus the
     scan position to resume from. *)
  let keys_in_range t pl ~from ~chunk =
    let ks = ref [] and n = ref 0 and k = ref from in
    while !n < chunk && !k < t.nkeys do
      if in_plan t pl !k then begin
        ks := !k :: !ks;
        incr n
      end;
      incr k
    done;
    (List.rev !ks, !k)

  let copy_step ?(chunk = 4) t ~thread =
    match t.window with
    | None -> invalid_arg "Migrate: no copy in progress"
    | Some pl ->
      let ks, next = keys_in_range t pl ~from:t.copy_next ~chunk in
      if ks = [] then true
      else begin
        Trace.span ~cat:"migrate" "ship" (fun () ->
            match
              Sh.atomically t.sh ~thread ~shards:[ pl.src; pl.dst ] (fun tx ->
                  List.iter
                    (fun k ->
                      let off = t.slot_of k in
                      let v = Sh.read tx ~shard:pl.src off in
                      (* Re-logging the source value makes the chunk a
                         genuine sibling pair: neither fragment can
                         survive a crash without the other. *)
                      Sh.write tx ~shard:pl.src off v;
                      Sh.write tx ~shard:pl.dst off v)
                    ks)
            with
            | Some ((), Sh.Ack_cross { gtid }) ->
              if gtid > t.last_window_gtid then t.last_window_gtid <- gtid
            | Some _ | None -> ());
        Trace.instant ~cat:"migrate" "ship.keys" (List.length ks);
        Stats.incr (Sh.stats t.sh) "migrate_copy_txs";
        t.copy_next <- next;
        false
      end

  let flip t =
    match t.window with
    | None -> invalid_arg "Migrate: no migration to flip"
    | Some pl ->
      Trace.span ~cat:"migrate" "flip" @@ fun () ->
      t.flipping <- true;
      Fun.protect ~finally:(fun () -> t.flipping <- false) @@ fun () ->
      Sched.wait_until ~label:"migrate.flip quiesce" (fun () ->
          t.range_active = 0);
      (* Everything the window committed is cross-sealed; the flip is only
         safe once all of it is durable on both owners. *)
      if t.last_window_gtid > 0 then
        Sh.wait_durable t.sh (Sh.Ack_cross { gtid = t.last_window_gtid });
      let part' =
        Partition.with_owner t.part ~blo:pl.blo ~bhi:pl.bhi ~owner:pl.dst
      in
      if sealing () then begin
        Handoff.seal_handoff t.hj (Some (pl, Handoff.Flip));
        Handoff.seal_descriptor t.hj part' ~epoch:pl.epoch;
        Handoff.seal_handoff t.hj (Some (pl, Handoff.Cleanup))
      end;
      t.part <- part';
      t.window <- None;
      t.cleanup <- Some pl;
      t.cleanup_next <- 0;
      Trace.instant ~cat:"migrate" "flip.epoch" pl.epoch;
      Stats.incr (Sh.stats t.sh) "migrations_flipped"

  let cleanup_step ?(chunk = 8) t ~thread =
    match t.cleanup with
    | None -> invalid_arg "Migrate: no cleanup pending"
    | Some pl ->
      let ks, next = keys_in_range t pl ~from:t.cleanup_next ~chunk in
      if ks = [] then begin
        (* The Idle seal forgets that cleanup was pending, so the zeroing
           writes must be durable first — a cut after an early seal would
           leave stale source slots no recovery would ever recycle. *)
        (match t.last_cleanup with Some a -> Sh.wait_durable t.sh a | None -> ());
        t.last_cleanup <- None;
        if sealing () then Handoff.seal_handoff t.hj None;
        t.cleanup <- None;
        Stats.incr (Sh.stats t.sh) "migrations_completed";
        true
      end
      else begin
        (match
           Sh.atomically t.sh ~thread ~shards:[ pl.src ] (fun tx ->
               List.iter (fun k -> Sh.write tx ~shard:pl.src (t.slot_of k) 0L) ks)
         with
        | Some (_, ack) -> t.last_cleanup <- Some ack
        | None -> ());
        Stats.incr (Sh.stats t.sh) "migrate_cleanup_txs";
        t.cleanup_next <- next;
        false
      end

  let migrate ?(chunk = 4) t ~thread ~src ~dst ~blo ~bhi =
    begin_migration t ~src ~dst ~blo ~bhi;
    while not (copy_step ~chunk t ~thread) do
      ()
    done;
    flip t;
    while not (cleanup_step ~chunk:(2 * chunk) t ~thread) do
      ()
    done
end
