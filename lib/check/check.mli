(** Crash-consistency campaigns over one kernel.

    A {e campaign} is one record: its [name]; the [devices] of a system
    instance; [run], which executes the lives of the system under a {e cut
    vector}; the [oracle], which judges the recovered state; and the
    [plan], the sweep.  The kernel alone arms the
    {!Dudetm_nvm.Nvm.set_persist_hook} over the device set: the hook fires
    at every persist boundary — when a persist ordering is issued and after
    each cache line reaches the persisted image — so a cut lands between
    any two line flushes, torn persists included.  Each life counts its
    boundaries and cuts power at its entry of the cut vector (0: the life
    runs uncut); [Crash_now], scheduler deadlocks and engine exceptions are
    caught by the kernel and become the run's verdict.

    The plan is a sequence of points (parameter settings).  Per point, a
    clean run counts the boundaries of the life to be cut, single cuts land
    at a sample of them, and a two-deep point also re-cuts a sample of
    first cuts at boundaries counted after each.  The first oracle
    violation stops the sweep and becomes the one {!failure} record, whose
    {!replay_line} parses back ({!parse_replay}) into the same coordinate.

    The ten campaigns, each validated by a seeded mutant ({!mutants}):
    - [explore] — systems (DudeTM variants, Mnemosyne, NVML) × counter
      workloads × schedules (default, seeded random preemption, bounded
      DFS); shrinks failures.
    - [media] — seeded bit rot, poison and stuck lines after the cut;
      never silently wrong.
    - [recovery] — cuts inside attach and scrub, three deep.
    - [daemons] — supervised Persist/Reproduce restarts under injected
      faults.
    - [shards], [batch] (two deep), [replica], [migrate] (two deep),
      [snapshot], [serve] — the layered protocols. *)

(** {1 Budgets} *)

type budget =
  | Smoke  (** the bounded numbers of the test suite *)
  | Quick  (** [dudetm check --quick]: the base numbers, environment ignored *)
  | Scaled of int  (** the base numbers times [n] *)
  | Deep  (** [dudetm check --deep] *)

val budget_of_env : unit -> budget
(** The one reader of the budget environment: [DUDETM_CHECK_DEEP=1] gives
    [Deep], [DUDETM_CHECK_BUDGET=n] gives [Scaled n], otherwise [Scaled 1]. *)

type explore_budget = {
  crash_sites : int;  (** cuts under the default schedule *)
  sched_seeds : int;  (** random-preemption seeds *)
  crash_sites_per_seed : int;
  exhaustive_runs : int;  (** bounded-DFS schedule explorations *)
  exhaustive_depth : int;  (** decision points eligible for branching *)
}

val explore_budget : budget -> explore_budget

(** {1 Mutants and failures} *)

val mutants : (Dudetm_core.Config.fault * string * string) list
(** Every seeded mutant with its CLI name and the campaign that must catch
    it. *)

type params = (string * string) list
(** Coordinates by flag name, e.g. [("txs", "10")]. *)

type failure = {
  campaign : string;
  mutant : Dudetm_core.Config.fault;
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
  ?mutant:Dudetm_core.Config.fault ->
  string ->
  params ->
  result
(** [run campaign args] sweeps the campaign, or replays exactly one case
    when [args] hold a cut ([crash-at], [crash2], [crash3]) or a case
    coordinate (such as [sched] or [leg]); a replay needs every sweep and
    case coordinate.  A coordinate the campaign does not declare, or a
    deeper cut whose life never ran, raises [Invalid_argument]. *)

val replay_line : failure -> string
(** The replayable [dudetm check ...] one-liner. *)

val parse_replay : string -> string * Dudetm_core.Config.fault * params
(** Campaign, mutant and coordinates of a {!replay_line}. *)

val summary : result -> string
(** The line [dudetm check] prints: [<campaign> campaign: PASS (...)] or
    [<campaign> campaign: FAIL: <reason>] plus the replay line. *)
