(** Simulated restricted hardware transactional memory (Intel RTM-like).

    Models the behaviour the paper measures in Section 5.7: transactions
    buffer their writes, conflicts are detected at cache-line granularity the
    moment a peer commits (mirroring coherence-based detection), transactions
    exceeding the write-buffer capacity take a capacity abort, and after
    [max_retries] failed attempts execution falls back to a global lock that
    aborts and excludes all hardware transactions.

    The paper's proposed minor hardware change — letting HTM ignore conflicts
    on the global transaction-ID counter — is the [tid_conflicts] switch:
    with [tid_conflicts = true] (stock hardware) every committing write
    transaction's counter increment dooms all concurrent transactions,
    reproducing the "prohibitive abort rate" the paper reports; with [false]
    (modified hardware) the counter is conflict-exempt. *)

include Tm_intf.S

val create_htm :
  ?seed:int ->
  ?capacity_lines:int ->
  ?max_retries:int ->
  ?tid_conflicts:bool ->
  Tm_intf.store ->
  t
(** Full-control constructor.  Defaults: 448 write lines (≈ Haswell L1
    write-set capacity), 5 retries before the lock fallback,
    [tid_conflicts = false].  The read set holds 8192 lines (L2-assisted
    read tracking). *)

exception Capacity
(** Internal: the transaction outgrew the hardware buffers.  Absorbed by
    {!run}, which falls back to the global lock. *)
