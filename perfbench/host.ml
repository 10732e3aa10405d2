(* Host micro-benchmarks of the hot modules, outside any simulation
   (outside [Sched.run], [Sched.advance] is a no-op): what one call costs
   the simulator in host nanoseconds.  Reported by the traced run only. *)

module Sched = Dudetm_sim.Sched
module Tinystm = Dudetm_tm.Tinystm
module Tm_intf = Dudetm_tm.Tm_intf
module Vlog = Dudetm_log.Vlog
module Combine = Dudetm_log.Combine
module Log_entry = Dudetm_log.Log_entry
module Checksum = Dudetm_log.Checksum
module Wire = Dudetm_log.Wire
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config

(* Host nanoseconds per call of [f]: Bechamel's least-squares fit of the
   monotonic clock against the run count, over 0.1 s of batches. *)
let ns_per_call f =
  let open Bechamel in
  let test = Test.make ~name:"call" (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.1) ~stabilize:false ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ r acc -> Analyze.OLS.estimates r :: acc) results [] with
  | [ Some [ ns ] ] -> ns
  | _ -> Float.nan

let entries n =
  List.init n (fun i -> Log_entry.Write { addr = 64 + (8 * (i mod 16)); value = Int64.of_int i })

let tm_write_tx () =
  let tm = Tinystm.create (Tm_intf.mem_store (Bytes.make 4096 '\000')) in
  ns_per_call (fun () ->
      ignore
        (Tinystm.run tm (fun tx ->
             for i = 0 to 3 do
               Tinystm.write tx (8 * i) (Int64.of_int i)
             done)))

let tm_ro_tx () =
  let tm = Tinystm.create (Tm_intf.mem_store (Bytes.make 4096 '\000')) in
  ns_per_call (fun () ->
      ignore
        (Tinystm.run_ro tm (fun ro ->
             for i = 0 to 3 do
               ignore (Tinystm.ro_read ro (8 * i))
             done)))

let vlog_append () =
  let v = Vlog.create ~capacity:1024 () in
  let e = Log_entry.Write { addr = 64; value = 1L } in
  let n = ref 0 in
  ns_per_call (fun () ->
      Vlog.append v e;
      incr n;
      if !n = 512 then begin
        Vlog.clear v;
        n := 0
      end)

let combine_seal () =
  let es = entries 64 in
  let b = Combine.builder () in
  ns_per_call (fun () ->
      Combine.feed_list b es;
      ignore (Combine.seal b))
  /. 64.0

let encode_payload () =
  let es = entries 64 in
  ns_per_call (fun () -> ignore (Log_entry.encode_payload es)) /. 64.0

let crc32 () =
  let b = Bytes.make 4096 'x' in
  ns_per_call (fun () -> ignore (Checksum.crc32 b 0 4096)) /. 4.0

let nvm_persist () =
  let d = Nvm.create ~charge_time:false Pmem_config.default ~size:(1 lsl 16) in
  let lines = 16 in
  ns_per_call (fun () ->
      for i = 0 to lines - 1 do
        Nvm.store_u64 d (64 * i) (Int64.of_int i)
      done;
      Nvm.persist d ~off:0 ~len:(64 * lines))
  /. float_of_int lines

let wire_encode () =
  let payload = Bytes.make 4096 'p' in
  let f = Wire.Batch { seq = 1; lo = 1; hi = 64; acked = 0; payload } in
  ns_per_call (fun () -> ignore (Wire.encode f)) /. 4.0

(* One switch = one [Sched.yield] handing control to the other fiber. *)
let sched_switch () =
  let n = 200_000 in
  let t0 = Sys.time () in
  ignore
    (Sched.run (fun () ->
         for f = 0 to 1 do
           ignore
             (Sched.spawn (Printf.sprintf "yield-%d" f) (fun () ->
                  for _ = 1 to n do
                    Sched.yield ()
                  done))
         done));
  (Sys.time () -. t0) *. 1e9 /. float_of_int (2 * n)

let metrics () =
  [
    ("host.tm_write_tx_ns", tm_write_tx ());
    ("host.tm_ro_tx_ns", tm_ro_tx ());
    ("host.vlog_append_ns", vlog_append ());
    ("host.combine_seal_ns_per_entry", combine_seal ());
    ("host.encode_payload_ns_per_entry", encode_payload ());
    ("host.crc32_ns_per_kb", crc32 ());
    ("host.nvm_persist_ns_per_line", nvm_persist ());
    ("host.wire_encode_ns_per_kb", wire_encode ());
    ("host.sched_switch_ns", sched_switch ());
  ]
