(** Crash-consistency campaigns over one life kernel and one oracle.

    A {e campaign} is a name, a sweep [plan] and a [run] that builds one
    case's system and hands the kernel five things: its build (devices and
    stack), its drive (the workload fibers), its watermark reader, its
    attach (recovery, or replica's promotion) and its read of the
    recovered image for the judge.  The kernel does the rest, so no
    campaign arms or cuts a life itself.  It alone arms the
    {!Dudetm_nvm.Nvm.set_persist_hook} over the device set: the hook fires
    at every persist boundary — when a persist ordering is issued and
    after each cache line reaches the persisted image — so a cut lands
    between any two line flushes, torn persists included.  Each life
    counts its boundaries, reads the watermark at each (what was
    acknowledged when the power goes out; a watermark that goes down
    fails the case), and cuts power at its entry of
    the {e cut vector} (0: the life runs uncut).  Every drive ends in a
    power loss, an attach and a judgement, cut or not; a cut system is
    rebased on its recovered cut and driven again where the campaign goes
    two or three deep.  [Crash_now] ends a life; scheduler deadlocks and
    engine exceptions become the run's verdict.  The kernel also owns the
    schedule (min-clock unless explore names one) and the crash (explore's
    eviction of dirty lines).

    Every campaign records its commits into a {!History} and judges each
    recovered image by {!History.check}: the image must be the replay of a
    downward-closed cut of the history, holding every acknowledged
    transaction and nothing but committed ones and each worker's last
    unreturned attempt.  Beside it stay only checks that do not judge
    recovered state: recovery's durable report against the image, the
    recovery verdict against the uninterrupted baseline, the replica
    watermark against the quorum prefix, watermark monotonicity, media's
    "reported" relaxation, migrate's convergence and daemons' post-check.

    The plan is a sequence of points (parameter settings).  Per point, a
    clean run counts the boundaries of the life to be cut, single cuts land
    at a sample of them, and a two-deep point also re-cuts a sample of
    first cuts at boundaries counted after each.  The first violation stops
    the sweep and becomes the one {!failure}, whose {!replay_line} parses
    back ({!parse_replay}) into the same coordinate.  Ten campaigns, each
    validated by a seeded mutant ({!Dudetm_sim.Inject.catalogue}), which
    {!run} arms for the lives of each case and only for them: [explore] (systems × counter
    workloads × schedules; shrinks), [media], [recovery] (three deep),
    [daemons], [shards], [batch] and [migrate] (two deep), [replica],
    [snapshot] and [serve]. *)

(** {1 Budgets} *)

type budget =
  | Smoke  (** the bounded numbers of the test suite *)
  | Scaled of int
      (** the base numbers times [n]; [dudetm check --quick] runs [Scaled 1],
          environment ignored *)
  | Deep  (** [dudetm check --deep] *)

val budget_of_env : unit -> budget
(** The one reader of the budget environment: [DUDETM_CHECK_DEEP=1] gives
    [Deep], [DUDETM_CHECK_BUDGET=n] gives [Scaled n], unset or empty
    variables [Scaled 1]; any other value raises [Invalid_argument]. *)

type explore_budget = {
  crash_sites : int;  (** cuts under the default schedule *)
  sched_seeds : int;  (** random-preemption seeds *)
  crash_sites_per_seed : int;
  exhaustive_runs : int;  (** bounded-DFS schedule explorations *)
  exhaustive_depth : int;  (** decision points eligible for branching *)
}

val explore_budget : budget -> explore_budget

(** {1 Failures} *)

type params = (string * string) list
(** Coordinates by flag name, e.g. [("txs", "10")]. *)

type failure = {
  campaign : string;
  mutant : Dudetm_sim.Inject.mutant;
  params : params;
  cuts : int list;  (** the cut vector: crash-at, crash2, crash3 *)
  reason : string;
}

type report = {
  campaign : string;
  given : params;
  runs : int;
  boundaries : int;  (** summed over the clean runs of every point *)
  tallies : (string * int) list;  (** campaign counters, e.g. acked requests *)
}

type result = Pass of report | Fail of failure

(** {1 Running campaigns} *)

val campaign_docs : (string * string) list
(** Campaign names with a one-line description; [explore] is the
    default campaign. *)

val coordinates : (string * string) list
(** Every coordinate flag of the grammar with its description. *)

val expand : string -> params -> params list
(** The separately reported sweeps a request stands for: [explore]
    without [system] runs once per system. *)

val run :
  ?log:(string -> unit) ->
  ?budget:budget ->
  ?mutant:Dudetm_sim.Inject.mutant ->
  string ->
  params ->
  result
(** [run campaign args] sweeps the campaign, or replays exactly one case
    when [args] hold a cut ([crash-at], [crash2], [crash3]) or a case
    coordinate (such as [sched] or [leg]); a replay needs every sweep and
    case coordinate.  Each case runs inside {!Dudetm_sim.Inject.with_}
    [~mutant] (explore keeps [dude-htm], [mnemosyne] and [nvml] disarmed;
    daemons also arms its [fault-rate]), so nothing stays armed after
    [run] returns or raises.  A coordinate the campaign does not declare,
    or a deeper cut whose life never ran, raises [Invalid_argument]. *)

val replay_line : failure -> string
(** The replayable [dudetm check ...] one-liner. *)

val parse_replay : string -> string * Dudetm_sim.Inject.mutant * params
(** Campaign, mutant and coordinates of a {!replay_line}. *)

val summary : result -> string
(** The line [dudetm check] prints: [<campaign> campaign: PASS (...)] or
    [<campaign> campaign: FAIL: <reason>] plus the replay line. *)
