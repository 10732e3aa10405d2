(** Adapters presenting DudeTM instances through the common {!Ptm_intf}
    interface used by workloads and benchmarks. *)

module Make (Tm : Dudetm_tm.Tm_intf.S) : sig
  module D : module type of Dudetm_core.Dudetm.Make (Tm)

  val ptm : ?name:string -> Dudetm_core.Config.t -> Ptm_intf.t * D.t
  (** Create a DudeTM instance and its interface record.  The underlying
      [D.t] is returned for tests that need crash/recovery access. *)

  val attach_ptm :
    Dudetm_core.Config.t ->
    Dudetm_nvm.Nvm.t ->
    Ptm_intf.t * D.t * Dudetm_core.Dudetm.recovery_report
  (** Recover from a crashed device and wrap the result, named
      ["DudeTM"]. *)
end

module Stm : module type of Make (Dudetm_tm.Tinystm)
(** DudeTM over the TinySTM-style software TM. *)

module Htm_based : module type of Make (Dudetm_tm.Htm)
(** DudeTM over the simulated hardware TM. *)
