module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module K = Dudetm_tm.Stm_kernel
module Tm_intf = Dudetm_tm.Tm_intf
module Alloc = Dudetm_core.Alloc
module Config = Dudetm_core.Config
module Trace = Dudetm_trace.Trace

type config = {
  heap_size : int;
  nthreads : int;
  pmem : Dudetm_nvm.Pmem_config.t;
  log_size : int;
  seed : int;
}

let default_config =
  {
    heap_size = 16 * 1024 * 1024;
    nthreads = 4;
    pmem = Dudetm_nvm.Pmem_config.default;
    log_size = 1 lsl 20;
    seed = 42;
  }

(* Calibration (EXPERIMENTS.md), in cycles, on top of the TM's default
   barrier costs: the Intel STM compiler's instrumentation per access, the
   write-set hash probe per read, and the cache refill per line CLFLUSH
   invalidated. *)
let instrument_cost = 140

let redirect_cost = 40

let clflush_penalty = 180

type t = {
  cfg : config;
  nvm : Nvm.t;
  stm : K.t;
  allocator : Alloc.t;
  log_cursor : int array;  (* bytes used in each thread's log region *)
  (* The version clock advances when a commit {e starts} (so concurrent
     committers draw distinct versions), but a transaction is only durable
     once its record's commit mark is sealed.  [durable] is the largest
     version with every version at or below it sealed — reporting the raw
     clock instead loses acknowledged transactions when a crash lands
     between the clock bump and the seal (found by the systematic crash
     checker, lib/check). *)
  mutable durable : int;
  sealed : (int, unit) Hashtbl.t;  (* versions sealed but > durable *)
}

let note_sealed t wv =
  Hashtbl.replace t.sealed wv ();
  while Hashtbl.mem t.sealed (t.durable + 1) do
    Hashtbl.remove t.sealed (t.durable + 1);
    t.durable <- t.durable + 1
  done

let log_base t thread = t.cfg.heap_size + (thread * t.cfg.log_size)

let create cfg =
  let size = cfg.heap_size + (cfg.nthreads * cfg.log_size) in
  let line = cfg.pmem.Dudetm_nvm.Pmem_config.line_size in
  let size = (size + line - 1) / line * line in
  let nvm = Nvm.create cfg.pmem ~size in
  {
    cfg;
    nvm;
    stm =
      K.create ~seed:cfg.seed
        { Tm_intf.load = Nvm.load_u64 nvm; store = Nvm.store_u64 nvm };
    allocator = Alloc.create ~base:Config.root_size ~size:(cfg.heap_size - Config.root_size);
    log_cursor = Array.make cfg.nthreads 0;
    durable = 0;
    sealed = Hashtbl.create 64;
  }

(* Every transactional access pays the STM compiler's instrumentation on
   top of the barrier; every read first probes the write set. *)
let mread t w addr =
  Sched.advance (Tm_intf.default_costs.read_cost + instrument_cost);
  Stats.incr t.stm.K.stats "reads";
  Sched.advance redirect_cost;
  K.wb_read w addr

let mwrite t w addr value =
  Sched.advance (Tm_intf.default_costs.write_cost + instrument_cost);
  Stats.incr t.stm.K.stats "writes";
  K.wb_write w addr value

(* One ordering over the whole heap.  Only in-place applies and
   recovery's replay store to the heap, so its dirty lines are exactly the
   lines those stores dirtied since the last such ordering or crash: the
   device flushes them, in ascending line order, and charges their bytes. *)
let persist_heap t = Nvm.persist t.nvm ~off:0 ~len:t.cfg.heap_size

(* Redo-log record ({!Word_record}): 16 bytes per (addr, value) pair, plus
   a 16-byte header/commit mark.  When the region fills up we must make the
   in-place data durable and truncate. *)
let truncate_log t thread =
  persist_heap t;
  (* Make the recycled records unreachable before reusing the region: a
     zeroed first header stops the recovery scan. *)
  Nvm.store_u64 t.nvm (log_base t thread) 0L;
  Nvm.persist t.nvm ~off:(log_base t thread) ~len:8;
  t.log_cursor.(thread) <- 0;
  Stats.incr t.stm.K.stats "log_truncations";
  Trace.instant ~cat:"persist" "truncate" thread

(* Persist the redo log synchronously — the per-transaction stall DudeTM
   decouples away — then apply the writes in place.  Runs with the write
   set locked, after the version is drawn. *)
let persist_and_apply t ~thread (w : K.wb) wv =
  (* The span makes the stall directly comparable to DudeTM's
     off-critical-path persist.flush. *)
  Trace.span_begin ~cat:"persist" "log_persist";
  let record_bytes = Word_record.size (List.length w.worder) in
  if t.log_cursor.(thread) + record_bytes + 8 > t.cfg.log_size then truncate_log t thread;
  (* Record plus a zeroed tombstone header: the tombstone stops a
     recovery scan before it can reach stale records from a previous lap
     of the region.  Unsealed header: the version shifted left, commit bit
     clear — the same encoding the seal completes by setting bit 0.
     Writing the raw version here would leave odd versions looking sealed,
     so a crash mid-record-persist could replay a torn transaction. *)
  let buf =
    Word_record.encode ~tombstone:true ~header:(Int64.of_int (wv lsl 1)) w.worder
      (Hashtbl.find w.wbuf)
  in
  let off = log_base t thread + t.log_cursor.(thread) in
  Nvm.store_bytes t.nvm off buf;
  Nvm.persist t.nvm ~off ~len:(record_bytes + 8);
  (* Commit mark: Mnemosyne seals the record with a second ordered
     write, so a torn record is never replayed. *)
  Nvm.store_u64 t.nvm off (Int64.of_int ((wv lsl 1) lor 1));
  Nvm.persist t.nvm ~off ~len:8;
  note_sealed t wv;
  t.log_cursor.(thread) <- t.log_cursor.(thread) + record_bytes;
  (* CLFLUSH invalidated the freshly written log lines: charge the
     refill penalty. *)
  Sched.advance (clflush_penalty * ((record_bytes + 63) / 64));
  Trace.span_end ~cat:"persist" "log_persist";
  (* Apply in place; these stores may linger in cache (the log covers
     them). *)
  List.iter (fun addr -> Nvm.store_u64 t.nvm addr (Hashtbl.find w.wbuf addr)) w.worder

(* A record that cannot fit the log region even after truncation is
   rejected before any stripe is locked or any version drawn, so a failed
   oversized transaction leaves no lock held and no hole in the durable
   prefix. *)
let commit t ~thread (w : K.wb) =
  if Word_record.size (List.length w.worder) + 8 > t.cfg.log_size then
    invalid_arg "Mnemosyne: transaction log too large";
  K.wb_commit w ~publish:(fun stm ->
      let wv = K.tick stm in
      persist_and_apply t ~thread w wv;
      wv)

let atomically_impl t ~thread f =
  Trace.span ~cat:"perform" "tx" @@ fun () ->
  let allocs = ref [] in
  let refund () =
    List.iter (fun (off, len) -> Alloc.free t.allocator ~off ~len) !allocs
  in
  let ptx w =
    {
      Ptm_intf.read = mread t w;
      write = mwrite t w;
      abort = (fun () -> K.user_abort w.K.tx);
      pmalloc =
        (fun n ->
          Sched.advance 260;
          match Alloc.alloc t.allocator n with
          | None -> failwith "Mnemosyne: out of persistent memory"
          | Some off ->
            allocs := (off, n) :: !allocs;
            mwrite t w off 0L;
            off);
      pfree = (fun ~off ~len -> Alloc.free t.allocator ~off ~len);
    }
  in
  K.run ~on_retry:refund t.stm K.Bare
    ~start:(fun stm ->
      allocs := [];
      K.begin_wb stm)
    ~finish:(commit t ~thread)
    ~abandon:(fun w -> K.abandon w.K.tx)
    (fun w -> f (ptx w))

let ptm_of t =
  let atomically : 'a. thread:int -> ?wset:int list -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~thread ?wset:_ f -> atomically_impl t ~thread f
  in
  (* Mnemosyne has no read-only mode: a read-only transaction still runs
     the full commit (torn-bit log seal included), so snapshot reads pay
     the ordinary path. *)
  let atomically_ro : 'a. durable:bool -> thread:int -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~durable:_ ~thread f -> atomically_impl t ~thread f
  in
  {
    Ptm_intf.name = "Mnemosyne";
    requires_static = false;
    nthreads = t.cfg.nthreads;
    root_base = 0;
    atomically;
    atomically_ro;
    peek = Nvm.load_u64 t.nvm;
    durable_id = (fun () -> t.durable);
    last_tid = (fun () -> t.stm.K.clock);
    start = (fun () -> ());
    drain = (fun () -> ());
    stop = (fun () -> ());
    nvm = Some t.nvm;
    counters = (fun () -> Stats.to_list t.stm.K.stats);
    prealloc = None;
  }

let ptm cfg = ptm_of (create cfg)

let nvm t = t.nvm

(* Crash recovery: replay every sealed redo record, in commit order across
   all per-thread logs, onto the home locations; then persist and truncate.
   A record is sealed once its header word carries the commit bit; an
   unsealed tail record is ignored (its transaction never committed). *)
let recover t =
  let records = ref [] in
  let load = Nvm.load_u64 t.nvm in
  for thread = 0 to t.cfg.nthreads - 1 do
    let rec scan pos =
      if pos + 16 <= t.cfg.log_size then begin
        let off = log_base t thread + pos in
        let h = Int64.to_int (load off) in
        if h land 1 = 1 then
          match Word_record.count load ~off ~room:(t.cfg.log_size - pos) with
          | None -> ()
          | Some n ->
            let writes = ref [] in
            Word_record.iter load ~off n (fun addr value -> writes := (addr, value) :: !writes);
            records := (h lsr 1, List.rev !writes) :: !records;
            scan (pos + Word_record.size n)
      end
    in
    scan 0
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !records in
  List.iter
    (fun (_, writes) -> List.iter (fun (addr, value) -> Nvm.store_u64 t.nvm addr value) writes)
    sorted;
  persist_heap t;
  for thread = 0 to t.cfg.nthreads - 1 do
    Nvm.store_u64 t.nvm (log_base t thread) 0L;
    Nvm.persist t.nvm ~off:(log_base t thread) ~len:8;
    t.log_cursor.(thread) <- 0
  done;
  Hashtbl.reset t.sealed;
  (match sorted with
  | [] -> ()
  | l ->
    let top = fst (List.hd (List.rev l)) in
    t.stm.K.clock <- max t.stm.K.clock top;
    t.durable <- max t.durable top);
  List.length sorted
