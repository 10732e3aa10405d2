type mutant =
  | No_fault
  | Early_durable_publish
  | Unfenced_reproduce
  | Skip_crc_verify
  | Skip_recovery_journal
  | Skip_fragment_gate
  | Skip_batch_seal
  | Skip_quorum_gate
  | Skip_handoff_seal
  | Skip_snapshot_validate
  | Skip_admission_gate

let catalogue =
  [
    (Early_durable_publish, "early-durable", "explore");
    (Unfenced_reproduce, "unfenced-reproduce", "explore");
    (Skip_crc_verify, "skip-crc-verify", "media");
    (Skip_recovery_journal, "skip-recovery-journal", "recovery");
    (Skip_fragment_gate, "skip-fragment-gate", "shards");
    (Skip_batch_seal, "skip-batch-seal", "batch");
    (Skip_quorum_gate, "skip-quorum-gate", "replica");
    (Skip_handoff_seal, "skip-handoff-seal", "migrate");
    (Skip_snapshot_validate, "skip-snapshot-validate", "snapshot");
    (Skip_admission_gate, "skip-admission-gate", "serve");
  ]

let name m =
  match List.find_opt (fun (g, _, _) -> g = m) catalogue with Some (_, n, _) -> n | None -> "none"

let of_name n =
  match List.find_opt (fun (_, m, _) -> m = n) catalogue with
  | Some (m, _, _) -> m
  | None when n = "none" -> No_fault
  | None -> invalid_arg ("Inject: unknown mutant " ^ n)

let current = ref No_fault

let rate = ref 0.0

(* Constant constructors are immediates: [==] is their equality. *)
let armed m = !current == m

let daemon_fault_rate () = !rate

let with_ ?mutant ?daemon_fault_rate f =
  Option.iter
    (fun r ->
      if not (r >= 0.0 && r <= 1.0) then
        invalid_arg "Inject: daemon_fault_rate must be within [0, 1]")
    daemon_fault_rate;
  let m0 = !current and r0 = !rate in
  Option.iter (( := ) current) mutant;
  Option.iter (( := ) rate) daemon_fault_rate;
  Fun.protect
    ~finally:(fun () ->
      current := m0;
      rate := r0)
    f
