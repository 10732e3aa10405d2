type mode = Async | Sync | Inf

exception Invalid_config of string

let () =
  Printexc.register_printer (function
    | Invalid_config msg -> Some (Printf.sprintf "Invalid_config %S" msg)
    | _ -> None)

type persist =
  | Per_thread of { daemons : int; min_entries : int; max_entries : int }
  | Combined of { group : int; compress : bool }

type t = {
  heap_size : int;
  nthreads : int;
  mode : mode;
  pmem : Dudetm_nvm.Pmem_config.t;
  shadow_mode : Dudetm_shadow.Shadow.mode;
  shadow_frames : int option;
  vlog_capacity : int;
  plog_size : int;
  meta_size : int;
  persist : persist;
  batch_deadline : int;
  reproduce_batch : int;
  checkpoint_records : int;
  log_append_cost : int;
  flush_cost_per_entry : int;
  compress_cost_per_byte : float;
  reproduce_cost_per_entry : int;
  drain_budget : int;
  bp_hwm_fraction : float;
  bp_wait_budget : int;
  pmalloc_wait_budget : int;
  ack_timeout : int;
  seed : int;
}

let root_size = 4096

let crc_extent = 512

let badline_capacity = 64

let default =
  {
    heap_size = 16 * 1024 * 1024;
    nthreads = 4;
    mode = Async;
    pmem = Dudetm_nvm.Pmem_config.default;
    shadow_mode = Dudetm_shadow.Shadow.Software;
    shadow_frames = None;
    vlog_capacity = 1 lsl 17;
    plog_size = 1 lsl 21;
    meta_size = 1 lsl 17;
    persist = Per_thread { daemons = 1; min_entries = 16; max_entries = 128 };
    batch_deadline = 4000;
    reproduce_batch = 64;
    checkpoint_records = 8;
    log_append_cost = 80;
    flush_cost_per_entry = 6;
    compress_cost_per_byte = 2.0;
    reproduce_cost_per_entry = 24;
    drain_budget = 200_000_000;
    bp_hwm_fraction = 0.75;
    bp_wait_budget = 2_000_000;
    pmalloc_wait_budget = 1_000_000;
    ack_timeout = 2_000_000;
    seed = 42;
  }

let plog_regions t = match t.persist with Per_thread _ -> t.nthreads | Combined _ -> 1

let meta_base t = t.heap_size

let line_align t n =
  let line = t.pmem.Dudetm_nvm.Pmem_config.line_size in
  (n + line - 1) / line * line

let crcdir_base t = t.heap_size + t.meta_size

let crcdir_size t = line_align t (t.heap_size / crc_extent * 8)

let badline_base t = crcdir_base t + crcdir_size t

let badline_size t = line_align t ((3 + badline_capacity) * 8)

let rjournal_base t = badline_base t + badline_size t

(* Two fixed-size intent slots (see Rjournal); each slot is padded to 128
   bytes so slot writes never share a cache line. *)
let rjournal_size t = line_align t 256

let hjournal_base t = rjournal_base t + rjournal_size t

(* Two double-slot records for the shard-migration coordinator (device 0
   of a sharded instance): the handoff record at +0 and the partition
   descriptor at +256.  Every device reserves the region so the layout is
   uniform; unsharded engines simply never touch it. *)
let hjournal_size t = line_align t 512

let plog_base t i = hjournal_base t + hjournal_size t + (i * t.plog_size)

let nvm_size t =
  (* Pad to a page: the paged shadow views the whole device and requires a
     page-aligned size (the CRC directory and bad-line table regions are
     only line-aligned). *)
  let page = 4096 in
  let n = line_align t (plog_base t (plog_regions t)) in
  (n + page - 1) / page * page

let validate t =
  let fail msg = raise (Invalid_config ("Config: " ^ msg)) in
  if t.heap_size <= 0 || t.heap_size land 4095 <> 0 then fail "heap_size must be a positive multiple of 4096";
  if t.nthreads < 1 then fail "nthreads < 1";
  if t.vlog_capacity < 16 then fail "vlog_capacity too small";
  if t.plog_size < 4096 then fail "plog_size too small";
  if t.meta_size < 4096 then fail "meta_size too small";
  (match t.persist with
  | Per_thread { daemons; min_entries; max_entries } ->
    if daemons < 1 then fail "persist daemons < 1";
    if min_entries < 1 then fail "min_entries < 1";
    if max_entries < min_entries then fail "max_entries below min_entries";
    if Dudetm_sim.Inject.armed Skip_batch_seal then
      fail "Skip_batch_seal seeds a bug in the pipelined (combined) persist path"
  | Combined { group; _ } ->
    if group < 1 then fail "group < 1";
    if t.mode = Sync then fail "Sync mode flushes per transaction; combination needs Async");
  if t.batch_deadline < 1 then fail "batch_deadline < 1";
  if t.reproduce_batch < 1 then fail "reproduce_batch < 1";
  if t.checkpoint_records < 1 then fail "checkpoint_records < 1";
  let line = t.pmem.Dudetm_nvm.Pmem_config.line_size in
  (* [crc_extent] divides every heap size, a multiple of 4096 *)
  if crc_extent mod line <> 0 then
    fail "crc_extent must be a positive multiple of the NVM line size";
  if t.drain_budget < 1 then fail "drain_budget < 1";
  if not (t.bp_hwm_fraction >= 0.0 && t.bp_hwm_fraction <= 1.0) then
    fail "bp_hwm_fraction must be within [0, 1]";
  if t.bp_wait_budget < 0 then fail "bp_wait_budget < 0";
  if t.pmalloc_wait_budget < 0 then fail "pmalloc_wait_budget < 0";
  if t.ack_timeout < 1 then fail "ack_timeout < 1";
  if nvm_size t land 4095 <> 0 then fail "nvm_size not page-aligned";
  match t.shadow_frames with
  | Some f when f < 2 -> fail "shadow_frames < 2"
  | _ -> ()
