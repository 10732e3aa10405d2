(* Quickstart: the paper's Algorithm 1 — transactional bank transfers on
   persistent memory, with a crash and recovery at the end.

     dune exec examples/quickstart.exe

   The workload runs inside the deterministic simulator (Sched.run): every
   simulated thread is a cooperative thread whose time advances through
   explicit cost charges, so the run is reproducible bit-for-bit. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config

(* DudeTM is a functor over an out-of-the-box TM; use the TinySTM-style
   software TM. *)
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let accounts = 64

let initial_balance = 100L

let account_addr t i = D.root_base t + (8 * i)

(* The paper's transfer transaction: abort if the source lacks funds. *)
let transfer t ~thread ~src ~dst ~amount =
  D.atomically t ~thread (fun tx ->
      let src_balance = D.read tx (account_addr t src) in
      if src_balance < amount then D.abort tx
      else begin
        D.write tx (account_addr t src) (Int64.sub src_balance amount);
        let dst_balance = D.read tx (account_addr t dst) in
        D.write tx (account_addr t dst) (Int64.add dst_balance amount)
      end)

let total_balance t =
  let sum = ref 0L in
  for i = 0 to accounts - 1 do
    sum := Int64.add !sum (D.heap_read_u64 t (account_addr t i))
  done;
  !sum

let () =
  let cfg = { Config.default with Config.nthreads = 4; heap_size = 1 lsl 20 } in
  let t = D.create cfg in
  Printf.printf "== DudeTM quickstart: durable bank transfers ==\n\n";

  (* Phase 1: initialize the accounts and run concurrent transfers. *)
  let committed = ref 0 and aborted = ref 0 in
  let cycles =
    Sched.run (fun () ->
        D.start t;
        (* One setup transaction funds every account. *)
        (match
           D.atomically t ~thread:0 (fun tx ->
               for i = 0 to accounts - 1 do
                 D.write tx (account_addr t i) initial_balance
               done)
         with
        | Some _ -> ()
        | None -> assert false);
        Sched.join ~label:"tellers"
          (List.init 4 (fun thread ->
               Sched.spawn (Printf.sprintf "teller-%d" thread) (fun () ->
                   let rng = Rng.create (100 + thread) in
                   for _ = 1 to 500 do
                     let src = Rng.int rng accounts and dst = Rng.int rng accounts in
                     let amount = Int64.of_int (1 + Rng.int rng 150) in
                     (match transfer t ~thread ~src ~dst ~amount with
                     | Some _ -> incr committed
                     | None -> incr aborted (* insufficient funds *))
                   done)));
        (* Wait until every committed transfer is persistent and reproduced
           to NVM home locations. *)
        D.drain t;
        D.stop t)
  in
  Printf.printf "ran 2000 transfer attempts on 4 threads in %.2f simulated ms\n"
    (Dudetm_sim.Cycles.to_us cycles /. 1000.0);
  Printf.printf "committed: %d, aborted (insufficient funds): %d\n" !committed !aborted;
  Printf.printf "durable id: %d (= last transaction id: %d)\n" (D.durable_id t) (D.last_tid t);
  Printf.printf "total balance (volatile view): %Ld (expected %Ld)\n" (total_balance t)
    (Int64.mul (Int64.of_int accounts) initial_balance);

  (* Phase 2: power failure.  All volatile state disappears; only the NVM
     image survives. *)
  Printf.printf "\n-- simulating power failure --\n";
  Nvm.crash (D.nvm t);
  let t2, report = D.attach cfg (D.nvm t) in
  Printf.printf "recovery: durable id %d, replayed %d transactions from redo logs\n"
    report.Dudetm_core.Dudetm.durable report.Dudetm_core.Dudetm.replayed_txs;
  Printf.printf "total balance after recovery: %Ld (expected %Ld)\n" (total_balance t2)
    (Int64.mul (Int64.of_int accounts) initial_balance);

  (* Phase 3: keep going on the recovered instance. *)
  ignore
    (Sched.run (fun () ->
         D.start t2;
         let rng = Rng.create 999 in
         for _ = 1 to 100 do
           ignore
             (transfer t2 ~thread:0 ~src:(Rng.int rng accounts) ~dst:(Rng.int rng accounts)
                ~amount:5L)
         done;
         D.drain t2;
         D.stop t2));
  Printf.printf "\nafter 100 more transfers on the recovered instance:\n";
  Printf.printf "total balance: %Ld, durable id: %d\n" (total_balance t2) (D.durable_id t2);
  if total_balance t2 = Int64.mul (Int64.of_int accounts) initial_balance then
    print_endline "OK: money is conserved across crash and recovery."
  else begin
    print_endline "FAILURE: balance mismatch!";
    exit 1
  end
