module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats
module Lock_table = Dudetm_tm.Lock_table
module Alloc = Dudetm_core.Alloc
module Config = Dudetm_core.Config
module Trace = Dudetm_trace.Trace

type config = {
  heap_size : int;
  nthreads : int;
  pmem : Dudetm_nvm.Pmem_config.t;
  log_size : int;
}

let default_config =
  {
    heap_size = 16 * 1024 * 1024;
    nthreads = 4;
    pmem = Dudetm_nvm.Pmem_config.default;
    log_size = 1 lsl 18;
  }

(* Calibration (EXPERIMENTS.md), in cycles.  ~1.14M empty tx/s/thread at
   3.4 GHz is ~2980 cycles per empty transaction; most of it is metadata
   allocation. *)
let tx_overhead = 2600

(* TX_ADD-style snapshotting work per undo entry. *)
let undo_entry_cost = 150

(* pmemobj-style transactional allocation measures in microseconds:
   metadata updates plus their flushes. *)
let alloc_cost = 10000

(* Plain loads and stores: no instrumentation. *)
let read_cost = 4

let write_cost = 8

type t = {
  cfg : config;
  nvm : Nvm.t;
  locks : Lock_table.t;
  mutable clock : int;
  mutable next_uid : int;
  allocator : Alloc.t;
  stats : Stats.t;
}

let log_base t thread = t.cfg.heap_size + (thread * t.cfg.log_size)

let create cfg =
  let size = cfg.heap_size + (cfg.nthreads * cfg.log_size) in
  let line = cfg.pmem.Dudetm_nvm.Pmem_config.line_size in
  let size = (size + line - 1) / line * line in
  {
    cfg;
    nvm = Nvm.create cfg.pmem ~size;
    locks = Lock_table.create ();
    clock = 0;
    next_uid = 1;
    allocator = Alloc.create ~base:Config.root_size ~size:(cfg.heap_size - Config.root_size);
    stats = Stats.create ();
  }

(* Blocking lock acquisition in sorted stripe order (deadlock-free).
   Returns the saved pre-acquisition versions for release. *)
let acquire_locks t ~uid stripes =
  List.map
    (fun stripe ->
      Sched.wait_until ~label:"nvml lock" (fun () ->
          Lock_table.version t.locks stripe >= 0);
      match Lock_table.acquire t.locks ~stripe ~uid with
      | -1 -> assert false
      | prev -> (stripe, prev))
    stripes

let release_locks t ~version held =
  List.iter
    (fun (stripe, prev) ->
      let v = match version with Some v -> v | None -> prev in
      Lock_table.release_to t.locks ~stripe ~version:v)
    held

(* NVML's allocator is persistent and slow; the paper moves allocations
   out of the measured paths where it can, but TPC-C-style transactions
   must allocate rows. *)
let palloc t size =
  Sched.advance alloc_cost;
  match Alloc.alloc t.allocator size with
  | None -> failwith "Nvml: out of persistent memory"
  | Some off -> off

let atomically_impl t ~thread ~wset f =
  Trace.span ~cat:"perform" "tx" @@ fun () ->
  Sched.advance (tx_overhead + (undo_entry_cost * List.length wset));
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let wset = List.sort_uniq compare wset in
  let n = List.length wset in
  (* Reject an undo record the log region cannot hold before taking any
     lock, so the failure leaves every stripe free. *)
  if Word_record.size n > t.cfg.log_size then invalid_arg "Nvml: write set exceeds log region";
  let stripes = List.sort_uniq compare (List.map (Lock_table.stripe_of_addr t.locks) wset) in
  let held = acquire_locks t ~uid stripes in
  (* Undo-log all old values at once: one persist ordering (the static-
     transaction trick that makes NVML competitive, Section 2.2). *)
  let record = Word_record.encode ~tombstone:false ~header:(Int64.of_int uid) wset (Nvm.load_u64 t.nvm) in
  let lb = log_base t thread in
  Trace.span_begin ~cat:"persist" "undo_log";
  Nvm.store_bytes t.nvm lb record;
  Nvm.persist t.nvm ~off:lb ~len:(Bytes.length record);
  Trace.span_end ~cat:"persist" "undo_log";
  let in_set = Hashtbl.create (2 * max 1 n) in
  List.iter (fun a -> Hashtbl.replace in_set a ()) wset;
  let written = ref [] in
  let rollback () =
    Word_record.iter (Bytes.get_int64_le record) ~off:0 n (Nvm.store_u64 t.nvm);
    Nvm.persist_ranges t.nvm (List.map (fun a -> (a, 8)) wset)
  in
  let ptx =
    {
      Ptm_intf.read =
        (fun addr ->
          Sched.advance read_cost;
          Nvm.load_u64 t.nvm addr);
      write =
        (fun addr value ->
          Sched.advance write_cost;
          if not (Hashtbl.mem in_set addr) then
            invalid_arg "Nvml: write outside the declared write set";
          Nvm.store_u64 t.nvm addr value;
          written := (addr, 8) :: !written);
      abort = (fun () -> raise Ptm_intf.Aborted);
      pmalloc = palloc t;
      pfree =
        (fun ~off ~len ->
          Sched.advance (alloc_cost / 2);
          Alloc.free t.allocator ~off ~len);
    }
  in
  match f ptx with
  | result ->
    (* Commit: persist the in-place updates, then retire the undo log. *)
    Trace.span_begin ~cat:"persist" "commit_persist";
    Nvm.persist_ranges t.nvm !written;
    Nvm.store_u64 t.nvm lb 0L;
    Nvm.persist t.nvm ~off:lb ~len:8;
    Trace.span_end ~cat:"persist" "commit_persist";
    let tid = t.clock + 1 in
    t.clock <- tid;
    release_locks t ~version:(Some tid) held;
    Stats.incr t.stats "commits";
    Some (result, tid)
  | exception Ptm_intf.Aborted ->
    rollback ();
    Nvm.store_u64 t.nvm lb 0L;
    Nvm.persist t.nvm ~off:lb ~len:8;
    release_locks t ~version:None held;
    Stats.incr t.stats "user_aborts";
    None

let ptm_of t =
  let atomically : 'a. thread:int -> ?wset:int list -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~thread ?(wset = []) f -> atomically_impl t ~thread ~wset f
  in
  (* NVML's static transactions have no read-only mode; an empty declared
     write set makes the ordinary path lock nothing, but it still pays
     the undo-log lifecycle. *)
  let atomically_ro : 'a. durable:bool -> thread:int -> (Ptm_intf.tx -> 'a) -> ('a * int) option
      =
    fun ~durable:_ ~thread f -> atomically_impl t ~thread ~wset:[] f
  in
  {
    Ptm_intf.name = "NVML";
    requires_static = true;
    nthreads = t.cfg.nthreads;
    root_base = 0;
    atomically;
    atomically_ro;
    peek = Nvm.load_u64 t.nvm;
    durable_id = (fun () -> t.clock);
    last_tid = (fun () -> t.clock);
    start = (fun () -> ());
    drain = (fun () -> ());
    stop = (fun () -> ());
    nvm = Some t.nvm;
    counters = (fun () -> Stats.to_list t.stats);
    prealloc = Some (palloc t);
  }

let ptm cfg = ptm_of (create cfg)

let nvm t = t.nvm

(* Crash recovery: any thread whose undo-log header is non-zero crashed
   mid-transaction; restore the logged old values (undo logging rolls
   back), persist, and retire the log.  Committed transactions already
   persisted their data before retiring their logs, so they need nothing. *)
let recover t =
  let rolled_back = ref 0 in
  for thread = 0 to t.cfg.nthreads - 1 do
    let lb = log_base t thread in
    if Nvm.load_u64 t.nvm lb <> 0L then begin
      (match Word_record.count (Nvm.load_u64 t.nvm) ~off:lb ~room:t.cfg.log_size with
      | None -> ()
      | Some n ->
        let ranges = ref [] in
        Word_record.iter (Nvm.load_u64 t.nvm) ~off:lb n (fun addr old_value ->
            Nvm.store_u64 t.nvm addr old_value;
            ranges := (addr, 8) :: !ranges);
        Nvm.persist_ranges t.nvm !ranges;
        incr rolled_back);
      Nvm.store_u64 t.nvm lb 0L;
      Nvm.persist t.nvm ~off:lb ~len:8
    end
  done;
  !rolled_back
