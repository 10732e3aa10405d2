(** Mnemosyne baseline (Volos et al., ASPLOS 2011) as characterized in the
    paper's Section 5.2.2.

    A redo-logging durable STM: write-back transactions buffer updates in a
    per-transaction write set; reads of uncommitted data are redirected
    through that set (an address-hash lookup per read — the update
    redirection cost); commit persists the redo log to NVM {e synchronously}
    (the per-transaction persist stall), then applies updates in place.
    Every transactional access additionally pays the Intel STM compiler's
    instrumentation overhead, and flushing log lines with [CLFLUSH]
    invalidates them, charged as a cache-refill penalty.

    Transactions are durable at commit: [durable_id = last_tid].

    The STM underneath is {!Dudetm_tm.Stm_kernel}'s write-back path — the
    same versioned-lock protocol, commit-time locking and retry loop as
    {!Dudetm_tm.Tinystm_wb}; this module adds only the instrumentation
    costs and the synchronous log persist.  The redo record is a
    {!Word_record}.  A transaction whose redo record cannot fit the log
    region raises [Invalid_argument] before it locks anything. *)

type config = {
  heap_size : int;
  nthreads : int;
  pmem : Dudetm_nvm.Pmem_config.t;
  log_size : int;  (** per-thread redo-log region, bytes *)
  seed : int;
}
(** The costs are the calibration in EXPERIMENTS.md, not settings:
    {!Dudetm_tm.Tm_intf.default_costs} per access plus 140 cycles of
    instrumentation, a 40-cycle write-set probe on each read, and a
    180-cycle refill per flushed log line.  The heap's first
    {!Dudetm_core.Config.root_size} bytes are the root area. *)

val default_config : config
(** 16 MiB heap, 4 threads, 1 MiB log per thread, seed 42. *)

type t

val create : config -> t

val ptm_of : t -> Ptm_intf.t

val ptm : config -> Ptm_intf.t

val nvm : t -> Dudetm_nvm.Nvm.t

val recover : t -> int
(** Crash recovery: replay every sealed redo record (commit-marked; torn
    tails are ignored) onto the home locations in commit order, persist,
    and truncate the logs.  Returns the number of records replayed. *)
