(** Deterministic cooperative scheduler for simulated threads.

    The simulator models the paper's multicore testbed with logical threads
    driven by OCaml 5 effect handlers.  Each thread owns a local cycle clock;
    the scheduler always resumes the runnable thread with the smallest clock
    (conservative discrete-event order), so a whole experiment — including
    races between Perform, Persist and Reproduce threads — replays
    deterministically.

    Threads communicate through shared mutable state and synchronise with
    {!wait_until} and {!wait_on}.  A thread is charged simulated time
    explicitly via {!advance}; while blocked, its clock tracks global
    simulated time so waiting is charged as busy-polling, which is how the
    paper's implementation waits too.

    {b Cost model.}  Runnable threads sit in a binary min-heap on
    [(clock, id)], so a resume costs O(log n) heap work — none when the
    thread that just advanced still has the least [(clock, id)].
    {!advance} makes its scheduling decision in place and switches only
    when another thread wins it: a thread that wins again keeps running,
    with no effect round trip.  Blocked threads either sit in a waiter
    array or are {e parked} on the {!cond}s they named in {!wait_on}.
    Each scheduling decision polls every waiter in the array exactly
    once, caches the answer, and drags the not-ready waiters' clocks in a
    second, predicate-free pass.  The array holds only the {!wait_until}
    waiters and the parked threads a {!signal} woke since the last pick;
    a woken waiter whose predicate is still false parks again.  So a pick
    costs one poll per such waiter, and the number of times a predicate
    runs depends on the schedule and on the signals; this is why
    predicates must be pure (see {!wait_until}).
    A parked thread costs nothing per pick: when it is woken (or the run
    ends) it gets, in one step, the clock drag of every pick it missed —
    the largest winner clock among them, read from a stack of
    [(pick, winner clock)] entries with strictly decreasing clocks (one
    entry under {!Min_clock}, whose winner clocks never decrease).
    Parking and signalling allocate nothing in steady state.

    A switch allocates only the continuation that OCaml's [perform]
    captures.  A wait whose predicate already holds performs no
    effect: it returns after that one evaluation, allocating nothing.  A
    wait that blocks keeps its predicate, label and conds in the thread's
    own record and performs a constant effect, and a losing {!advance}
    keeps its continuation there too.

    {b The {!wait_on} contract.}  A waiter that names conds must be woken by
    them: every change to state its predicate reads that can make the
    predicate true must {!signal} one of its conds before the next
    scheduling decision.  Extra signals are harmless (the woken thread is
    polled once and parks again); a missing one leaves the thread parked
    on a true predicate — a lost wakeup, which the test runner's
    {!audit_wakeups} self-check reports as {!Lost_wakeup}.  A predicate
    that reads {!global_now} (or anything else that changes without a
    signal) must use {!wait_until}. *)

exception Deadlock of string
(** Raised when no thread can make progress: every live non-daemon thread is
    blocked on a false predicate.  The payload lists the blocked threads in
    spawn order. *)

(** {1 Scheduling strategies}

    Every scheduling point where more than one thread is runnable is a
    {e decision point}.  The default strategy resolves it conservatively
    (smallest local clock wins — discrete-event order); the systematic
    checker ([lib/check]) plugs in alternatives to explore other legal
    interleavings while keeping every run perfectly reproducible. *)

type strategy =
  | Min_clock
      (** Resume the runnable thread with the smallest [(clock, id)] — the
          conservative discrete-event order used by all benchmarks. *)
  | Choice of (step:int -> candidates:int -> int)
      (** At decision point number [step] (counted from 0, only points with
          [candidates >= 2] runnable threads count), pick the candidate at
          the returned index in [(clock, id)] order.  Index 0 reproduces
          {!Min_clock} at that point; out-of-range indices clamp to 0.  The
          function must be deterministic in [(step, candidates)] for runs to
          be replayable. *)

val min_clock : strategy

val random_priority : seed:int -> strategy
(** Seeded random preemption: each decision point independently picks a
    uniformly random runnable thread.  Stateless (the choice is a hash of
    [(seed, step)]), so the same seed always yields the same schedule and
    the strategy value can be reused across runs. *)

val run : ?strategy:strategy -> (unit -> unit) -> int
(** [run main] executes [main] as the first logical thread, scheduling it and
    everything it {!spawn}s until all non-daemon threads finish; remaining
    daemon threads are then cancelled.  Returns the final simulated time in
    cycles.  Must not be nested.  [strategy] (default {!Min_clock}) resolves
    scheduling decision points. *)

val spawn : ?daemon:bool -> string -> (unit -> unit) -> int
(** [spawn name f] creates a new logical thread starting at the caller's
    current clock and returns its id.  Daemon threads ([daemon] defaults to
    [false]) do not keep the simulation alive: once only daemons remain they
    are cancelled by raising {!Killed} inside them.  Only valid inside
    {!run}. *)

exception Killed
(** Raised inside a daemon thread when the simulation shuts down.  Daemon
    loops may catch it to run cleanup; it is absorbed by the scheduler. *)

val join : ?label:string -> int list -> unit
(** [join ids] blocks the calling thread until every thread in [ids] (as
    returned by {!spawn}) has returned or been cancelled.  It is woken by
    thread completion, not polled: the joiner parks on one
    scheduler-owned {!cond} that each finishing thread signals (a no-op
    that allocates nothing while no thread is joining).  Parking keeps
    the exact drag, so every resume and clock is the same as a
    {!wait_until} polling a "done" counter that each thread bumps as its
    last act.  [label] (default ["join"]) names the wait in {!Deadlock}
    reports.  Raises [Invalid_argument] outside {!run} or on an id that
    was never spawned. *)

val halt : unit -> 'a
(** [halt ()] ends the current {!run} at once — a power cut at the
    caller's clock: no thread runs again, daemons are not cancelled (no
    {!Killed} cleanup runs), and [run] returns normally with the simulated
    time so far.  The exception it raises unwinds the caller's stack
    first, so [Fun.protect] finalisers on that stack do run.  It is for
    time cuts ([advance n; halt ()]); a cut raised from a persist hook
    whose caller must tell a cut run from a finished one should keep its
    own exception.  Raises [Invalid_argument] outside a thread of {!run}. *)

val advance : int -> unit
(** [advance n] charges the calling thread [n] cycles and is a scheduling
    decision.  It switches only when another thread wins the pick; when
    the caller wins, it returns at once, the pick done exactly as if it
    had yielded (every waiter polled once, the not-ready ones dragged, the
    {!audit_wakeups} check run, a {!Choice} strategy consulted at a
    decision point).
    Outside {!run} it is a no-op, so cost-annotated library code can also
    be exercised by plain unit tests. *)

val yield : unit -> unit
(** [yield ()] is [advance 1]: the minimal preemption point. *)

val poll : budget:int -> step:int -> (int -> bool) -> int
(** [poll ~budget ~step ready] is a bounded wait by advancing: while
    [ready elapsed] is false and fewer than [budget] cycles are spent, it
    {!advance}s by [step] (the last step clipped to the budget).  [ready]
    gets the cycles spent so far and is evaluated before every step and
    once after the last.  Returns the cycles spent.  Unlike a time-based
    {!wait_until} predicate, this always makes progress, even when every
    other thread is blocked too. *)

type cond
(** A wake condition: the set of threads parked on it.  Create one per
    piece of shared state a wait reads (a queue, a counter, a flag) when
    the object that owns the state is created. *)

val cond : unit -> cond

val signal : cond -> unit
(** [signal c] moves every thread parked on [c] back to the waiter array;
    the next scheduling decision polls them.  Call it right after each
    change that can make a predicate waiting on [c] true.  A no-op when
    nothing is parked on [c]. *)

val wait_until : ?label:string -> (unit -> bool) -> unit
(** [wait_until p] blocks the calling thread until [p ()] is true.  [p] must
    be a pure read of shared state: it is evaluated once when called and
    then exactly once per scheduling decision while it sits in the waiter
    array, and the scheduler acts on that one cached answer, so a
    predicate with a side effect changes the simulation.  [p] runs with no
    thread current: {!now} and {!self} read 0 inside it, {!advance} is a
    no-op and {!spawn} raises.  When the first evaluation holds, the call
    returns with no switch, and when it raises, the exception reaches the
    caller, still current.  While blocked, the thread's clock follows
    simulated time.

    A blocked thread sits in the waiter array and is polled at every
    scheduling decision.  Outside {!run}, returns immediately if [p ()]
    holds and raises {!Deadlock} otherwise. *)

val wait_on : cond list -> ?label:string -> (unit -> bool) -> unit
(** [wait_on conds p] is {!wait_until}[ p], except that a false predicate
    parks the thread instead of leaving it in the waiter array, and only a
    {!signal} of one of [conds] brings it back: see the {!wait_on}
    contract above.  Build [conds] once, with the conds, not per call.
    Parking never changes the schedule — the order of resumes and every
    clock are the same as under {!wait_until}.  Raises [Invalid_argument]
    when [conds] is empty. *)

exception Lost_wakeup of string
(** Raised by the {!audit_wakeups} self-check, with the waiter's label. *)

val audit_wakeups : bool -> unit
(** Turn the lost-wakeup self-check on or off (off by default; the test
    runner turns it on).  While on, every scheduling decision evaluates
    the predicate of every parked thread and raises {!Lost_wakeup} if one
    holds.  The check only reads state, so it never changes a decision;
    it costs what polling every parked waiter would. *)

val now : unit -> int
(** Current local clock of the calling thread (0 outside {!run} and inside
    a {!wait_until} predicate).  A plain read: it performs no effect. *)

val self : unit -> int
(** Id of the calling thread (0 outside {!run} and inside a {!wait_until}
    predicate).  A plain read: it performs no effect. *)

val global_now : unit -> int
(** High-water mark of simulated time across all threads so far. *)

val running : unit -> bool
(** Whether the caller executes inside an active simulation. *)
