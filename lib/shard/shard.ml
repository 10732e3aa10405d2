(* Sharded DudeTM: N independent persistent regions — each with its own NVM
   device, plog rings, allocator/checkpoint pair and supervised
   Persist/Reproduce daemons — behind one transactional API.

   Single-shard transactions run entirely on their home region and cost
   nothing extra.  Cross-shard transactions take a global mutex, quiesce the
   touched regions (so no TM conflict — hence no retry — can strike while
   several regions' transactions are nested), run one sub-transaction per
   region, and seal every written fragment with a shared global transaction
   ID drawn under the mutex.

   Soundness hinges on the global cross-shard frontier GF: the largest g
   such that every cross-shard transaction with gtid <= g has ALL its
   fragments durable on their own regions.  A fragment is replayed to NVM
   only once its gtid is at or below GF (the engine's replay gate), the
   durability acknowledgement for a region stops just below its first
   fragment beyond GF (the vector watermark), and recovery runs a fixpoint
   vote that discards every fragment of an incomplete set on every region.
   Gating on GF rather than on the fragment's own set matters: with three
   regions, an incomplete set g' below a complete set g on a shared region
   would otherwise cut an already-acknowledged g out of the durable prefix
   during recovery. *)

module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config

exception Cross_abort

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  module Engine = Dudetm_core.Dudetm.Make (Tm)

  (* What a committed transaction must wait on to be crash-safe. *)
  type ack =
    | Ack_read_only
    | Ack_local of { shard : int; tid : int }
    | Ack_cross of { gtid : int }

  (* Sibling set of one cross-shard transaction: [Pending] between the
     global-ID draw and commit completion (blocks the frontier so a
     fragment whose record races ahead of registration still waits);
     [Sealed] once every fragment's local transaction ID is known. *)
  type frag_set =
    | Pending
    | Sealed of { mask : int; frags : (int * int) list (* (shard, tid) *) }

  type t = {
    cfg : Config.t;
    nshards : int;
    engines : Engine.t array;
    blocked : bool array;  (* cross path is quiescing this shard *)
    active : int array;  (* in-flight single-shard transactions *)
    mutable cross_lock : bool;
    mutable next_gtid : int;  (* last drawn global cross-shard ID *)
    reg : (int, frag_set) Hashtbl.t;  (* gtid -> sibling set, > frontier *)
    mutable frontier : int;  (* GF: all sets <= this are fully durable *)
    stats : Stats.t;
    (* Wake conditions and the cond list of each wait, built once. *)
    wake_blocked : Sched.cond array;  (* per shard: a quiesce released it *)
    wake_cross : Sched.cond;  (* the cross lock was released *)
    wake_quiesce : Sched.cond;  (* some shard's in-flight count reached 0 *)
    wake_reg : Sched.cond;  (* a sibling set was sealed into [reg] *)
    blocked_on : Sched.cond list array;
    cross_on : Sched.cond list;
    quiesce_on : Sched.cond list;
    (* Everything GF and the effective IDs read: the registry and every
       engine's durable ID. *)
    frontier_on : Sched.cond list;
  }

  (* A cross-shard transaction's state, built once per transaction. *)
  type cross = {
    sh : t;
    dtxs : Engine.tx option array;  (* open sub-transaction per shard *)
    shards_mask : int;  (* declared shards *)
    mutable written_mask : int;  (* shards actually written *)
    mutable gtid : int;  (* 0 until a fragment seal is drawn *)
  }

  (* A single-shard transaction (or snapshot) is its home engine's
     transaction and nothing more: no per-shard array, no mask, no seal. *)
  type tx = Single of { sh : t; shard : int; dtx : Engine.tx } | Cross of cross

  (* ------------------------------------------------------------------ *)
  (* The global frontier (pure readers + one impure advancer)            *)
  (* ------------------------------------------------------------------ *)

  (* The frontier readers below run in every wait predicate and replay
     gate that polls GF, so they allocate nothing: top-level recursion
     with explicit arguments, no option, closure or ref. *)

  let rec frags_durable engines = function
    | [] -> true
    | (s, tid) :: rest -> Engine.durable_id engines.(s) >= tid && frags_durable engines rest

  (* Is sibling set [g] fully durable?  Pure: reads durable counters only.
     A gtid absent from the registry was pruned at a frontier advance, so
     it is already known durable. *)
  let set_durable t g =
    match Hashtbl.find t.reg g with
    | exception Not_found -> true
    | Pending -> false
    | Sealed { frags; _ } -> frags_durable t.engines frags

  let rec frontier_from t g =
    if g < t.next_gtid && set_durable t (g + 1) then frontier_from t (g + 1) else g

  (* GF as of now, without mutating anything (safe in wait conditions). *)
  let pure_frontier t = frontier_from t t.frontier

  let rec durable_from t g' g = g' > g || (set_durable t g' && durable_from t (g' + 1) g)

  (* Every set in (frontier, g] durable?  The engines' replay gate. *)
  let is_durable_upto t g = durable_from t (t.frontier + 1) g

  (* Publish GF and prune the registry below it.  Impure: never call from a
     wait predicate. *)
  let advance_frontier t =
    let gf = pure_frontier t in
    for g = t.frontier + 1 to gf do
      Hashtbl.remove t.reg g
    done;
    t.frontier <- gf

  let rec cut_below s acc = function
    | [] -> acc
    | (s', tid) :: rest -> cut_below s (if s' = s && tid - 1 < acc then tid - 1 else acc) rest

  (* The registry holds exactly the gtids in (frontier, next_gtid], and
     GF >= frontier: the sets beyond GF are the live ones. *)
  let rec effective_from t s g acc =
    if g > t.next_gtid then acc
    else
      effective_from t s (g + 1)
        (match Hashtbl.find t.reg g with
        | Pending -> acc
        | Sealed { frags; _ } -> cut_below s acc frags)

  (* Effective (acknowledgeable) durable ID of shard [s]: its engine's
     durable counter, cut just below its first fragment beyond GF — such a
     fragment can still be discarded by the recovery vote (directly, or by
     the contiguity cascade of an earlier incomplete set), so nothing at or
     above it may be acknowledged yet. *)
  let pure_effective t s =
    effective_from t s (pure_frontier t + 1) (Engine.durable_id t.engines.(s))

  (* ------------------------------------------------------------------ *)
  (* Construction                                                        *)
  (* ------------------------------------------------------------------ *)

  (* Reproduce may apply a fragment only once every cross-shard
     transaction at or below its global ID is durable on all its shards.
     The [Skip_fragment_gate] mutant installs no gate. *)
  let install_gates t =
    if not (Dudetm_sim.Inject.armed Skip_fragment_gate) then
      Array.iter
        (fun e ->
          Engine.set_replay_gate e ~on:t.frontier_on
            (Some
               (fun it ->
                 let g = Engine.item_cross_gtid it in
                 g = 0 || g <= t.frontier || is_durable_upto t g)))
        t.engines

  (* Durable-only snapshot readers on shard [s] pin at its entry of the
     vector watermark, not at the raw engine durable counter: a fragment
     beyond the global frontier can still be discarded by the recovery
     vote, so durable-mode reads must not observe it.  [pure_effective]
     is side-effect free, as the snapshot pin wait requires. *)
  let install_ro_watermarks t =
    Array.iteri
      (fun s e ->
        Engine.set_ro_watermark e ~on:t.frontier_on (Some (fun () -> pure_effective t s)))
      t.engines

  let check_nshards nshards =
    if nshards < 1 || nshards > 60 then
      invalid_arg "Shard: nshards must be within [1, 60] (fragment masks are int bitsets)"

  let build cfg ~nshards engines =
    let wake_blocked = Array.init nshards (fun _ -> Sched.cond ()) in
    let wake_cross = Sched.cond () and wake_quiesce = Sched.cond () in
    let wake_reg = Sched.cond () in
    let t =
      {
        cfg;
        nshards;
        engines;
        blocked = Array.make nshards false;
        active = Array.make nshards 0;
        cross_lock = false;
        next_gtid = 0;
        reg = Hashtbl.create 64;
        frontier = 0;
        stats = Stats.create ();
        wake_blocked;
        wake_cross;
        wake_quiesce;
        wake_reg;
        blocked_on = Array.map (fun c -> [ c ]) wake_blocked;
        cross_on = [ wake_cross ];
        quiesce_on = [ wake_quiesce ];
        frontier_on = wake_reg :: Array.to_list (Array.map Engine.wake_durable engines);
      }
    in
    install_gates t;
    install_ro_watermarks t;
    t

  let create ~nshards cfg =
    check_nshards nshards;
    let engines =
      Array.init nshards (fun i -> Engine.create ~nvm_label:("shard" ^ string_of_int i) cfg)
    in
    build cfg ~nshards engines

  let start t = Array.iter Engine.start t.engines

  let nshards t = t.nshards

  let config t = t.cfg

  let engine t s = t.engines.(s)

  let nvm t s = Engine.nvm t.engines.(s)

  let stats t = t.stats

  (* ------------------------------------------------------------------ *)
  (* Transactions                                                        *)
  (* ------------------------------------------------------------------ *)

  let check_shard sh ~mask s =
    if s < 0 || s >= sh.nshards then invalid_arg "Shard: bad shard index";
    if mask land (1 lsl s) = 0 then invalid_arg "Shard: transaction touched an undeclared shard"

  let cross_dtx c s =
    check_shard c.sh ~mask:c.shards_mask s;
    match c.dtxs.(s) with Some d -> d | None -> assert false

  let dtx_of tx s =
    match tx with
    | Single { sh; shard; dtx } ->
      check_shard sh ~mask:(1 lsl shard) s;
      dtx
    | Cross c -> cross_dtx c s

  (* The sub-transaction a mutation of [s] goes through; a cross-shard
     transaction also records [s] as written. *)
  let written_dtx tx s =
    match tx with
    | Single _ -> dtx_of tx s
    | Cross c ->
      let d = cross_dtx c s in
      c.written_mask <- c.written_mask lor (1 lsl s);
      d

  let read tx ~shard addr = Engine.read (dtx_of tx shard) addr

  let write tx ~shard addr v = Engine.write (written_dtx tx shard) addr v

  let pmalloc tx ~shard len = Engine.pmalloc (written_dtx tx shard) len

  let pfree tx ~shard ~off ~len = Engine.pfree (written_dtx tx shard) ~off ~len

  let abort _tx = raise Cross_abort

  let popcount mask =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go mask 0

  let leave_single t s =
    t.active.(s) <- t.active.(s) - 1;
    if t.active.(s) = 0 then Sched.signal t.wake_quiesce

  (* Single-shard fast path: an ordinary engine transaction, throttled only
     by a cross-shard quiesce of its home region.  The active counter keeps
     the quiesce honest: a cross transaction proceeds only once every
     in-flight single-shard transaction on a touched region has finished. *)
  let run_single t ~thread s f =
    if t.blocked.(s) then
      Sched.wait_on t.blocked_on.(s) ~label:"shard blocked" (fun () -> not t.blocked.(s));
    t.active.(s) <- t.active.(s) + 1;
    match
      Engine.atomically t.engines.(s) ~thread (fun dtx -> f (Single { sh = t; shard = s; dtx }))
    with
    | outcome -> (
      leave_single t s;
      match outcome with
      | Some (v, 0) -> Some (v, Ack_read_only)
      | Some (v, tid) -> Some (v, Ack_local { shard = s; tid })
      | None -> None)
    | exception Cross_abort ->
      leave_single t s;
      None
    | exception e ->
      leave_single t s;
      raise e

  (* Cross-shard path.  Under the global mutex, with the touched regions
     quiesced, sub-transactions nest in ascending shard order; the user body
     runs innermost.  Quiescence means no conflicts, so no TM retry can
     re-run an inner body whose sub-transaction already committed.  The
     global ID is drawn (and the registry slot marked Pending) only after
     the body succeeds — an aborted transaction never consumes a gtid, so
     gtids stay dense and the frontier never waits on a hole. *)
  let run_cross t ~thread shards f =
    let mask = List.fold_left (fun m s -> m lor (1 lsl s)) 0 shards in
    Sched.wait_on t.cross_on ~label:"shard cross lock" (fun () -> not t.cross_lock);
    t.cross_lock <- true;
    List.iter (fun s -> t.blocked.(s) <- true) shards;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun s ->
            t.blocked.(s) <- false;
            Sched.signal t.wake_blocked.(s))
          shards;
        t.cross_lock <- false;
        Sched.signal t.wake_cross)
    @@ fun () ->
    Sched.wait_on t.quiesce_on ~label:"shard quiesce"
      (fun () -> List.for_all (fun s -> t.active.(s) = 0) shards);
    Stats.incr t.stats "cross_txs";
    let c =
      { sh = t; dtxs = Array.make t.nshards None; shards_mask = mask;
        written_mask = 0; gtid = 0 }
    in
    let tx = Cross c in
    let frags = ref [] in
    let rec open_levels = function
      | [] ->
        let v = f tx in
        (* Body done: the set of written regions is known.  Seal every
           written fragment with a fresh global ID before any level
           commits, so each fragment's redo record carries its sibling
           mask. *)
        if popcount c.written_mask >= 2 then begin
          let g = t.next_gtid + 1 in
          t.next_gtid <- g;
          c.gtid <- g;
          Hashtbl.replace t.reg g Pending;
          List.iter
            (fun s ->
              if c.written_mask land (1 lsl s) <> 0 then
                Engine.seal_cross (cross_dtx c s) ~gtid:g ~mask:c.written_mask)
            shards
        end;
        v
      | s :: rest -> (
        match
          Engine.atomically t.engines.(s) ~thread (fun dtx ->
              c.dtxs.(s) <- Some dtx;
              open_levels rest)
        with
        | Some (v, tid) ->
          if tid > 0 then frags := (s, tid) :: !frags;
          v
        | None ->
          (* Engine-level user abort cannot happen here: the shard layer
             aborts by raising Cross_abort through every level. *)
          assert false)
    in
    match open_levels shards with
    | v ->
      (* Every level committed.  Registration closes the Pending window:
         until now the frontier (and therefore every region's replay gate
         and acknowledgement watermark) treated gtid as not-yet-durable. *)
      if c.gtid > 0 then begin
        let fs = List.filter (fun (s, _) -> c.written_mask land (1 lsl s) <> 0) !frags in
        Hashtbl.replace t.reg c.gtid (Sealed { mask = c.written_mask; frags = fs });
        Sched.signal t.wake_reg
      end;
      let ack =
        if c.gtid > 0 then Ack_cross { gtid = c.gtid }
        else
          match !frags with
          | [ (s, tid) ] -> Ack_local { shard = s; tid }
          | [] -> Ack_read_only
          | _ -> assert false
      in
      Some (v, ack)
    | exception Cross_abort ->
      (* The body aborted before any global ID was drawn; every level
         rolled back on the way out. *)
      None

  (* Read-only snapshot on one shard.  Deliberately no quiesce handshake:
     a snapshot owns no stripes, keeps no undo list and draws no ID, so it
     cannot conflict with anything — including the cross-shard path, whose
     quiesce only exists to keep TM retries out of nested sub-transactions.
     The reader simply waits out any Owned stripe it encounters, so it is
     never blocked behind (and never blocks) a cross-shard quiesce of its
     home region.  In durable mode the snapshot pins at this shard's entry
     of the vector watermark (installed at [build]). *)
  let atomically_ro ?durable t ~thread ~shard f =
    if shard < 0 || shard >= t.nshards then
      invalid_arg "Shard.atomically_ro: bad shard index";
    Stats.incr t.stats "ro_txs";
    match
      Engine.atomically_ro ?durable t.engines.(shard) ~thread (fun dtx ->
          f (Single { sh = t; shard; dtx }))
    with
    | outcome -> outcome
    | exception Cross_abort -> None

  let rec check_indices t = function
    | [] -> ()
    | s :: rest ->
      if s < 0 || s >= t.nshards then invalid_arg "Shard.atomically: bad shard index";
      check_indices t rest

  let atomically t ~thread ~shards f =
    (* A one-shard list, the common case, needs no sort. *)
    let shards = match shards with [ _ ] -> shards | _ -> List.sort_uniq compare shards in
    check_indices t shards;
    match shards with
    | [] -> invalid_arg "Shard.atomically: empty shard list"
    | [ s ] ->
      Stats.incr t.stats "single_txs";
      run_single t ~thread s f
    | _ -> run_cross t ~thread shards f

  (* ------------------------------------------------------------------ *)
  (* Durability protocol                                                 *)
  (* ------------------------------------------------------------------ *)

  let global_frontier t =
    advance_frontier t;
    t.frontier

  let durable_vector t =
    advance_frontier t;
    Array.map Engine.durable_id t.engines

  let effective_vector t =
    advance_frontier t;
    Array.init t.nshards (pure_effective t)

  let wait_durable t = function
    | Ack_read_only -> ()
    | Ack_local { shard; tid } ->
      Sched.wait_on t.frontier_on ~label:"shard durable" (fun () ->
          pure_effective t shard >= tid);
      advance_frontier t
    | Ack_cross { gtid } ->
      Sched.wait_on t.frontier_on ~label:"shard cross durable" (fun () ->
          pure_frontier t >= gtid);
      advance_frontier t

  (* ------------------------------------------------------------------ *)
  (* Drain / stop                                                        *)
  (* ------------------------------------------------------------------ *)

  (* Mark every region draining before blocking on any single drain: a
     combined-mode persist daemon only flushes a partial trailing group
     once draining is set, and one region's replay gate can require exactly
     that trailing flush on a sibling. *)
  let drain_diagnostic t =
    String.concat "; "
      (List.init (Array.length t.engines) (fun s ->
           Printf.sprintf "shard %d: %s" s (Engine.drain_diagnostic t.engines.(s))))

  let drain t =
    Array.iter Engine.begin_drain t.engines;
    (try Array.iter Engine.drain t.engines
     with Dudetm_core.Dudetm.Drain_stalled _ ->
       raise (Dudetm_core.Dudetm.Drain_stalled (drain_diagnostic t)));
    advance_frontier t

  let stop t =
    drain t;
    Array.iter Engine.stop t.engines

  (* ------------------------------------------------------------------ *)
  (* Recovery: prepare every region, vote, commit every region           *)
  (* ------------------------------------------------------------------ *)

  type recovery = {
    reports : Dudetm_core.Dudetm.recovery_report array;
    voted_cuts : int array;  (** candidate durable ID minus the vote's cut, per shard *)
    discarded_fragments : int;  (** fragments dropped for incomplete sibling sets *)
  }

  (* The cross-shard vote.  Starting from every region's candidate durable
     ID, repeatedly discard fragments whose sibling set is incomplete: a
     fragment (g, mask, tid) on x fails when some sibling y in mask has no
     scanned fragment of g inside its current cut AND y's checkpointed
     frontier is below g (a frontier at or above g proves y already
     replayed — and possibly recycled — its fragment, so absence from y's
     rings is not absence of durability).  Discarding shrinks a cut, which
     can invalidate later fragments on other regions, so iterate to the
     (monotonically decreasing, hence convergent) fixpoint. *)
  let vote ~nshards preps =
    let cuts = Array.map Engine.prepared_durable preps in
    let frontiers = Array.map Engine.prepared_frontier preps in
    let frags = Array.map Engine.prepared_fragments preps in
    let floors = Array.map Engine.prepared_checkpoint_upto preps in
    let discarded = ref 0 in
    let sibling_has s g =
      frontiers.(s) >= g
      || List.exists (fun (g', _, tid) -> g' = g && tid <= cuts.(s)) frags.(s)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for x = 0 to nshards - 1 do
        List.iter
          (fun (g, mask, tid) ->
            if tid <= cuts.(x) && frontiers.(x) < g then begin
              let complete =
                let ok = ref true in
                for y = 0 to nshards - 1 do
                  if y <> x && mask land (1 lsl y) <> 0 && not (sibling_has y g) then ok := false
                done;
                !ok
              in
              if not (complete) then begin
                (* The checkpoint floor bounds the cut from below: replayed
                   state cannot be un-replayed.  A fragment below the floor
                   with a missing sibling would mean the replay gate was
                   broken — surface it instead of silently accepting. *)
                if tid <= floors.(x) then
                  failwith
                    (Printf.sprintf
                       "Shard.attach: fragment gtid=%d already replayed on shard %d but its \
                        sibling set is incomplete (replay-gate violation)"
                       g x);
                cuts.(x) <- tid - 1;
                incr discarded;
                changed := true
              end
            end)
          frags.(x)
      done
    done;
    (cuts, !discarded)

  let attach ~nshards cfg nvms =
    check_nshards nshards;
    if Array.length nvms <> nshards then invalid_arg "Shard.attach: wrong device count";
    let preps = Array.map (Engine.attach_prepare cfg) nvms in
    let candidates = Array.map Engine.prepared_durable preps in
    let cuts, discarded = vote ~nshards preps in
    let pairs = Array.mapi (fun i p -> Engine.attach_commit ~durable_cut:cuts.(i) p) preps in
    let engines = Array.map fst pairs in
    let reports = Array.map snd pairs in
    let t = build cfg ~nshards engines in
    (* Everything that survived the vote is fully durable, so the frontier
       restarts above every global ID ever drawn; fresh draws continue
       after it. *)
    let maxg = ref 0 in
    Array.iter (fun p -> maxg := max !maxg (Engine.prepared_frontier p)) preps;
    Array.iter
      (fun fs -> List.iter (fun (g, _, _) -> maxg := max !maxg g) fs)
      (Array.map Engine.prepared_fragments preps);
    t.next_gtid <- !maxg;
    t.frontier <- !maxg;
    let voted_cuts = Array.mapi (fun i c -> candidates.(i) - c) cuts in
    (t, { reports; voted_cuts; discarded_fragments = discarded })
end
