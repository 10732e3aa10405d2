(* Shared machinery for the paper-reproduction benchmarks: builds the
   evaluated systems, runs a workload on N simulated threads, and reports
   throughput / latency / NVM traffic. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Cycles = Dudetm_sim.Cycles
module Stats = Dudetm_sim.Stats
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module W = Dudetm_workloads
module Ptm = B.Ptm_intf

(* ------------------------------ systems ------------------------------ *)

let heap_size = 32 * 1024 * 1024

let pmem ?(latency = 1000) ?(bandwidth = 1.0) () =
  { Pmem_config.default with Pmem_config.persist_latency = latency; bandwidth_gbps = bandwidth }

let dude_config ?(mode = Config.Async) ?(nthreads = 4) ?(latency = 1000) ?(bandwidth = 1.0)
    ?(heap = heap_size) () =
  {
    Config.default with
    Config.heap_size = heap;
    nthreads;
    mode;
    pmem = pmem ~latency ~bandwidth ();
  }

type system = Dude | Dude_inf | Dude_sync | Dude_sync_pcm | Volatile | Mnemosyne | Nvml

let system_name = function
  | Dude -> "DUDETM"
  | Dude_inf -> "DUDETM-Inf"
  | Dude_sync -> "DUDETM-Sync"
  | Dude_sync_pcm -> "DUDETM-Sync(3500)"
  | Volatile -> "Volatile-STM"
  | Mnemosyne -> "Mnemosyne"
  | Nvml -> "NVML"

let make_system ?(nthreads = 4) ?(latency = 1000) ?(bandwidth = 1.0) sys : Ptm.t =
  match sys with
  | Dude ->
    fst (B.Dude_ptm.Stm.ptm ~name:"DUDETM" (dude_config ~nthreads ~latency ~bandwidth ()))
  | Dude_inf ->
    fst
      (B.Dude_ptm.Stm.ptm ~name:"DUDETM-Inf"
         (dude_config ~mode:Config.Inf ~nthreads ~latency ~bandwidth ()))
  | Dude_sync ->
    fst
      (B.Dude_ptm.Stm.ptm ~name:"DUDETM-Sync"
         (dude_config ~mode:Config.Sync ~nthreads ~latency ~bandwidth ()))
  | Dude_sync_pcm ->
    fst
      (B.Dude_ptm.Stm.ptm ~name:"DUDETM-Sync(3500)"
         (dude_config ~mode:Config.Sync ~nthreads ~latency:3500 ~bandwidth ()))
  | Volatile -> B.Volatile_stm.ptm ~heap_size ~nthreads ()
  | Mnemosyne ->
    B.Mnemosyne.ptm
      { B.Mnemosyne.default_config with
        B.Mnemosyne.heap_size;
        nthreads;
        pmem = pmem ~latency ~bandwidth ();
      }
  | Nvml ->
    B.Nvml.ptm
      { B.Nvml.default_config with
        B.Nvml.heap_size;
        nthreads;
        pmem = pmem ~latency ~bandwidth ();
      }

(* ----------------------------- workloads ----------------------------- *)

(* A benchmark: a name, a setup, a transaction body (returning its commit
   id), a per-transaction application compute cost (calibration constant;
   see EXPERIMENTS.md), and the number of transactions to run. *)
type bench = {
  bname : string;
  think : int;
  ntxs : int;
  static_ok : bool;  (** runnable on NVML *)
  setup : Ptm.t -> (thread:int -> rng:Rng.t -> int);
}

let hashtable_bench () =
  {
    bname = "HashTable";
    think = 900;
    ntxs = 12_000;
    static_ok = true;
    setup =
      (fun ptm ->
        let h = W.Hashtable_app.setup ptm ~capacity:65536 in
        fun ~thread ~rng ->
          let key = Int64.of_int (1 + Rng.int rng 0xFFFFFF) in
          ignore (W.Hashtable_app.insert h ~thread ~key ~value:(Rng.next_int64 rng));
          0);
  }

let bptree_bench () =
  {
    bname = "B+tree";
    think = 300;
    ntxs = 8_000;
    static_ok = false;
    setup =
      (fun ptm ->
        let b = W.Bptree_app.create ptm in
        fun ~thread ~rng ->
          W.Bptree_app.insert b ~thread ~key:(Int64.of_int (1 + Rng.int rng 0xFFFFF))
            ~value:(Rng.next_int64 rng);
          0);
  }

let kv_bench ?(storage = W.Kv.Hash) () =
  {
    bname = (match storage with W.Kv.Hash -> "KV (hash)" | W.Kv.Tree -> "KV (B+tree)");
    think = 600;
    ntxs = 12_000;
    static_ok = storage = W.Kv.Hash;
    setup =
      (fun ptm ->
        let kv = W.Kv.setup ptm storage ~capacity:65536 in
        fun ~thread ~rng ->
          (* Mixed read/insert/update, YCSB-ish: 50% lookups, 30% inserts,
             20% updates over a 64K key space. *)
          let key = Int64.of_int (1 + Rng.int rng 0xFFFF) in
          (match Rng.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 -> ignore (W.Kv.lookup kv ~thread ~key)
          | 5 | 6 | 7 -> ignore (W.Kv.insert kv ~thread ~key ~value:(Rng.next_int64 rng))
          | _ -> ignore (W.Kv.update kv ~thread ~key ~value:(Rng.next_int64 rng)));
          0);
  }

let tatp_bench ~storage () =
  {
    bname = (match storage with W.Kv.Hash -> "TATP (hash)" | W.Kv.Tree -> "TATP (B+tree)");
    think = (match storage with W.Kv.Hash -> 1200 | W.Kv.Tree -> 300);
    ntxs = 12_000;
    static_ok = storage = W.Kv.Hash;
    setup =
      (fun ptm ->
        let t = W.Tatp.setup ptm ~storage ~subscribers:4000 in
        fun ~thread ~rng ->
          W.Tatp.update_location t ~thread ~rng;
          0);
  }

let tpcc_bench ~storage ?(items = 1000) ?district_of_thread ?(mixed = false) () =
  {
    bname =
      (match (storage, mixed) with
      | W.Kv.Hash, false -> "TPC-C (hash)"
      | W.Kv.Tree, false -> "TPC-C (B+tree)"
      | W.Kv.Hash, true -> "TPC-C mix (hash)"
      | W.Kv.Tree, true -> "TPC-C mix (B+tree)");
    think = (if mixed then 30_000 else 60_000);
    ntxs = 800;
    static_ok = storage = W.Kv.Hash;
    setup =
      (fun ptm ->
        let t = W.Tpcc.setup ptm ~storage ~items ~expected_orders:8192 () in
        fun ~thread ~rng ->
          let district = Option.map (fun f -> f thread) district_of_thread in
          if mixed then W.Tpcc.transaction t ~thread ~rng ?district ()
          else W.Tpcc.new_order t ~thread ~rng ?district ());
  }

let all_benches () =
  [
    bptree_bench ();
    tpcc_bench ~storage:W.Kv.Tree ();
    tatp_bench ~storage:W.Kv.Tree ();
    hashtable_bench ();
    tpcc_bench ~storage:W.Kv.Hash ();
    tatp_bench ~storage:W.Kv.Hash ();
  ]

(* ------------------------------- runner ------------------------------ *)

type result = {
  ktps : float;
  cycles_per_tx : float;
  ntxs_run : int;
  writes : int;  (** transactional writes executed (dtmWrite count) *)
  nvm_bytes : int;  (** bytes flushed to NVM during the measured phase *)
  run_cycles : int;  (** full simulated run, setup through drain/stop *)
  counters : (string * int) list;
  latency : Stats.Latency.r;
  commit_latency : Stats.Latency.r;
}

let run_bench ?(measure_latency = false) (ptm : Ptm.t) bench =
  let nthreads = ptm.Ptm.nthreads in
  let per = bench.ntxs / nthreads in
  let ntxs_run = per * nthreads in
  let done_ = Array.make nthreads 0 in
  let start = ref 0 in
  let start_writes = ref 0 in
  let start_bytes = ref 0 in
  let end_ = ref 0 in
  let latency = Stats.Latency.create () in
  let commit_latency = Stats.Latency.create () in
  let writes_of () =
    List.fold_left
      (fun acc (k, v) ->
        if k = "log_entries" || k = "tm.writes" || k = "writes" then max acc v else acc)
      0
      (ptm.Ptm.counters ())
  in
  let nvm_bytes_of () =
    match ptm.Ptm.nvm with Some nvm -> Nvm.persisted_write_bytes nvm | None -> 0
  in
  let run_cycles =
    Sched.run (fun () ->
         ptm.Ptm.start ();
         let do_tx = bench.setup ptm in
         start := Sched.now ();
         start_writes := writes_of ();
         start_bytes := nvm_bytes_of ();
         for th = 0 to nthreads - 1 do
           ignore
             (Sched.spawn
                (Printf.sprintf "worker-%d" th)
                (fun () ->
                  let rng = Rng.create (9000 + th) in
                  (* The durability-acknowledgement protocol of Section 5.3:
                     remember (commit tid, begin time); after each
                     transaction, acknowledge everything at or below the
                     global durable ID. *)
                  let pending = Queue.create () in
                  let ack () =
                    let d = ptm.Ptm.durable_id () in
                    let rec drain () =
                      match Queue.peek_opt pending with
                      | Some (tid, t0) when tid <= d ->
                        ignore (Queue.pop pending);
                        Stats.Latency.record latency (Sched.now () - t0);
                        drain ()
                      | _ -> ()
                    in
                    drain ()
                  in
                  for _ = 1 to per do
                    Sched.advance bench.think;
                    let t0 = Sched.now () in
                    let tid = do_tx ~thread:th ~rng in
                    Stats.Latency.record commit_latency (Sched.now () - t0);
                    if measure_latency && tid > 0 then Queue.push (tid, t0) pending;
                    if measure_latency then ack ();
                    done_.(th) <- done_.(th) + 1
                  done;
                  if measure_latency then begin
                    Sched.wait_until ~label:"final acks" (fun () ->
                        match Queue.peek_opt pending with
                        | Some (tid, _) -> ptm.Ptm.durable_id () >= tid
                        | None -> true);
                    ack ()
                  end))
         done;
         Sched.wait_until ~label:"benchmark done" (fun () ->
             Array.for_all (fun c -> c = per) done_);
         end_ := Sched.now ();
         ptm.Ptm.drain ();
         ptm.Ptm.stop ())
  in
  let cycles = !end_ - !start in
  {
    ktps = (if cycles = 0 then 0.0 else float_of_int ntxs_run /. Cycles.to_seconds cycles /. 1e3);
    cycles_per_tx = float_of_int cycles /. float_of_int (max 1 ntxs_run);
    ntxs_run;
    writes = writes_of () - !start_writes;
    nvm_bytes = nvm_bytes_of () - !start_bytes;
    run_cycles;
    counters = ptm.Ptm.counters ();
    latency;
    commit_latency;
  }

(* ------------------------------ output ------------------------------- *)

let hr = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" hr title hr

let ktps ~txs ~cycles =
  if cycles = 0 then 0.0 else float_of_int txs /. (Cycles.to_us cycles /. 1000.0)

let pp_ktps v = if v >= 1000.0 then Printf.sprintf "%.2f MTPS" (v /. 1000.0) else Printf.sprintf "%.1f KTPS" v

let report_commit_latency label r =
  Printf.printf "  commit latency %-24s %s\n%!" label (Stats.Latency.pp r.commit_latency)

(* ------------------------------ ledger ------------------------------- *)

module Ledger = struct
  type value = Int of int | Float of float

  type bound = At_least of float | At_most of float | Exactly of float

  type t = {
    mutable rows : (string * string * string * string * value) list;  (* newest first *)
    mutable gates : ((string * string * string) * bound) list;
    values : (string * string * string, value) Hashtbl.t;
  }

  let create () = { rows = []; gates = []; values = Hashtbl.create 256 }

  let add t ~scenario ~layer metrics =
    List.iter
      (fun (metric, unit_, value) ->
        let key = (scenario, layer, metric) in
        if Hashtbl.mem t.values key then
          invalid_arg (Printf.sprintf "Ledger.add: duplicate row %s %s %s" scenario layer metric);
        Hashtbl.add t.values key value;
        t.rows <- (scenario, layer, metric, unit_, value) :: t.rows)
      metrics

  let ints unit_ metrics = List.map (fun (metric, v) -> (metric, unit_, Int v)) metrics

  let gate t ~scenario ~layer metric bound =
    t.gates <- ((scenario, layer, metric), bound) :: t.gates

  (* The shortest %g rendering that reads back to the same bits, so the
     committed golden is exact without 17-digit noise on every value. *)
  let cell = function
    | Int i -> string_of_int i
    | Float x ->
      let rec go p =
        let s = Printf.sprintf "%.*g" p x in
        if p >= 17 || Int64.bits_of_float (float_of_string s) = Int64.bits_of_float x then s
        else go (p + 1)
      in
      go 15

  let check t =
    List.rev_map
      (fun (((scenario, layer, metric) as key), bound) ->
        let want, holds =
          match bound with
          | At_least b -> (Printf.sprintf ">= %g" b, fun v -> v >= b)
          | At_most b -> (Printf.sprintf "<= %g" b, fun v -> v <= b)
          | Exactly b -> (Printf.sprintf "= %g" b, fun v -> v = b)
        in
        let name = String.concat " " [ scenario; layer; metric ] in
        match Hashtbl.find_opt t.values key with
        | None -> (Printf.sprintf "%s: no such row (want %s)" name want, false)
        | Some v ->
          let x = match v with Int i -> float_of_int i | Float x -> x in
          (Printf.sprintf "%s = %s (want %s)" name (cell v) want, holds x))
      t.gates

  let write t path =
    if t.rows <> [] then begin
      Out_channel.with_open_text path (fun oc ->
          output_string oc "scenario\tlayer\tmetric\tvalue\tunit\n";
          List.iter
            (fun (s, l, m, u, v) -> Printf.fprintf oc "%s\t%s\t%s\t%s\t%s\n" s l m (cell v) u)
            (List.rev t.rows));
      Printf.printf "wrote %s (%d rows)\n" path (List.length t.rows)
    end
end
