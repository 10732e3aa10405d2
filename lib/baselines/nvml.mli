(** NVML (Intel's persistent-memory library, now PMDK) baseline as
    characterized in the paper's Sections 2.2 and 5.2.2.

    Undo logging with {e static} transactions: the caller declares the
    write set up front, so all old values are logged and persisted with a
    single persist ordering at transaction begin, as one {!Word_record}
    undo record.  NVML transactions give
    no isolation; concurrency control is the application's job, modelled
    here as striped blocking locks acquired in sorted order over the
    declared write set.  Each transaction also pays NVML's dynamic
    allocation of transaction metadata and undo buffers, calibrated to the
    paper's observation of at most ~1.14 M empty transactions per second
    per thread.

    Transactions are durable at commit. *)

type config = {
  heap_size : int;
  nthreads : int;
  pmem : Dudetm_nvm.Pmem_config.t;
  log_size : int;  (** per-thread undo-log region, bytes *)
}
(** The costs are the calibration in EXPERIMENTS.md, not settings: 2600
    cycles of metadata/undo allocation per transaction plus 150 per
    declared write-set word, 10000 per transactional persistent
    allocation, and uninstrumented 4-cycle loads and 8-cycle stores.  The
    heap's first {!Dudetm_core.Config.root_size} bytes are the root
    area. *)

val default_config : config
(** 16 MiB heap, 4 threads, 256 KiB log per thread. *)

type t

val create : config -> t

val ptm_of : t -> Ptm_intf.t

val ptm : config -> Ptm_intf.t
(** [requires_static] is true: pass the transaction's write set through
    [atomically ~wset].  Writing an address outside the declared set raises
    [Invalid_argument]. *)

val nvm : t -> Dudetm_nvm.Nvm.t

val recover : t -> int
(** Crash recovery: roll back any in-flight transaction from its persisted
    undo log (the batched old values written at transaction begin) and
    retire the logs.  Returns the number of transactions rolled back. *)
