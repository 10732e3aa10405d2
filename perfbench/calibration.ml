(* The calibration constants every simulated number rests on, and their
   fingerprint.  Editing any of them changes the fingerprint and fails
   the benchmark's check until [recorded] is updated: a constant edit then
   reads as a re-baseline, never as a speed-up. *)

module Config = Dudetm_core.Config
module Tm_intf = Dudetm_tm.Tm_intf
module Shadow = Dudetm_shadow.Shadow
module Pmem_config = Dudetm_nvm.Pmem_config
module Cycles = Dudetm_sim.Cycles

(* The fingerprint of the constants the benchmark's numbers were
   measured with. *)
let recorded = "10190c7306c39858d41a84a33e04dd8a"

let costs (c : Tm_intf.costs) =
  Printf.sprintf "begin %d read %d write %d commit %d + %d/write abort %d"
    c.Tm_intf.begin_cost c.Tm_intf.read_cost c.Tm_intf.write_cost c.Tm_intf.commit_base
    c.Tm_intf.commit_per_write c.Tm_intf.abort_cost

let pmem (p : Pmem_config.t) =
  Printf.sprintf "latency %d bandwidth %h line %d" p.Pmem_config.persist_latency
    p.Pmem_config.bandwidth_gbps p.Pmem_config.line_size

let shadow (s : Shadow.config) =
  Printf.sprintf
    "page_bits %d sw_access %d sw_pin %d sw_fault %d hw_fault %d hw_shootdown %d copy %h"
    s.Shadow.page_bits s.Shadow.sw_access_cost s.Shadow.sw_pin_cost s.Shadow.sw_fault_cost
    s.Shadow.hw_fault_cost s.Shadow.hw_shootdown_cost s.Shadow.copy_cycles_per_byte

(* [Config.default]'s TM costs and device are [Tm_intf.default_costs] and
   [Pmem_config.default], hashed once below. *)
let table () =
  let c = Config.default in
  String.concat "\n"
    [
      Printf.sprintf
        "Config.default: log_append %d flush_per_entry %d compress_per_byte %h \
         reproduce_per_entry %d"
        c.Config.log_append_cost c.Config.flush_cost_per_entry c.Config.compress_cost_per_byte
        c.Config.reproduce_cost_per_entry;
      "Tm_intf.default_costs: " ^ costs Tm_intf.default_costs;
      "Shadow.default_config: " ^ shadow (Shadow.default_config Shadow.Software ~frames:0);
      "Pmem_config.default: " ^ pmem Pmem_config.default;
      "Pmem_config.pcm: " ^ pmem Pmem_config.pcm;
      Printf.sprintf "Cycles.per_second: %h" Cycles.per_second;
    ]

let fingerprint () = Digest.to_hex (Digest.string (table ()))
