(** Volatile-STM baseline: plain TinySTM on DRAM, no durability.

    The paper's performance upper bound (Section 5.1): what DudeTM's
    Perform step would achieve if persistence were free. *)

val ptm :
  ?name:string ->
  ?heap_size:int ->
  ?nthreads:int ->
  ?seed:int ->
  unit ->
  Ptm_intf.t
(** Transactions "become durable" the moment they commit ([durable_id] =
    [last_tid]); [nvm] is [None]. *)

val ptm_htm :
  ?name:string ->
  ?heap_size:int ->
  ?nthreads:int ->
  ?seed:int ->
  ?tid_conflicts:bool ->
  unit ->
  Ptm_intf.t
(** Volatile-HTM variant (Table 4's upper bound for the HTM rows). *)
