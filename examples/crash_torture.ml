(* Crash-torture harness: sweep crash points and adversarial cache-eviction
   fractions over a mixed workload (counters + allocation-heavy linked
   list), verifying after every crash that recovery restores exactly the
   durable prefix.

     dune exec examples/crash_torture.exe -- [rounds]

   This is the experiment a real persistent-memory testbed cannot run
   deterministically: the simulator replays every crash bit-for-bit from
   its seed. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module D = Dudetm_core.Dudetm.Make (Dudetm_tm.Tinystm)

let cfg =
  {
    Config.default with
    Config.heap_size = 1 lsl 20;
    nthreads = 3;
    vlog_capacity = 1024;
    plog_size = 1 lsl 14 (* tiny: forces continuous recycling under load *);
  }

let slots = 128

(* Mixed transaction: bump the counter, stamp a slot, and every 4th
   transaction also grow a linked list with pmalloc. *)
let work_tx t thread =
  ignore
    (D.atomically t ~thread (fun tx ->
         let c = D.read tx 0 in
         let c1 = Int64.add c 1L in
         D.write tx (8 + (8 * (Int64.to_int c1 mod slots))) c1;
         if Int64.to_int c1 mod 4 = 0 then begin
           let cell = D.pmalloc tx 16 in
           D.write tx cell c1;
           D.write tx (cell + 8) (D.read tx (8 * (slots + 2)));
           D.write tx (8 * (slots + 2)) (Int64.of_int cell)
         end;
         D.write tx 0 c1))

let verify t2 durable =
  let c = D.heap_read_u64 t2 0 in
  if c <> Int64.of_int durable then
    failwith (Printf.sprintf "counter %Ld != durable %d" c durable);
  for i = 0 to slots - 1 do
    let v = Int64.to_int (D.heap_read_u64 t2 (8 + (8 * i))) in
    let expected =
      if durable <= 0 then 0
      else begin
        let m = ((durable - i) / slots * slots) + i in
        let m = if m > durable then m - slots else m in
        if m >= 1 then m else 0
      end
    in
    if v <> expected then failwith (Printf.sprintf "slot %d: %d != %d" i v expected)
  done;
  (* The list must contain exactly the multiples of 4 up to durable, newest
     first. *)
  let rec walk cell expect =
    if cell = 0 then begin
      if expect >= 4 then failwith "list truncated";
      ()
    end
    else begin
      let v = Int64.to_int (D.heap_read_u64 t2 cell) in
      if v <> expect then failwith (Printf.sprintf "list cell %d != %d" v expect);
      walk (Int64.to_int (D.heap_read_u64 t2 (cell + 8))) (expect - 4)
    end
  in
  walk (Int64.to_int (D.heap_read_u64 t2 (8 * (slots + 2)))) (durable / 4 * 4)

let round seed =
  let rng = Rng.create seed in
  let crash_cycles = 1_000 + Rng.int rng 400_000 in
  let evict = Rng.float rng in
  let t = D.create cfg in
  ignore
    (Sched.run (fun () ->
         D.start t;
         for th = 0 to cfg.Config.nthreads - 1 do
           ignore
             (Sched.spawn (Printf.sprintf "w%d" th) (fun () ->
                  while true do
                    work_tx t th
                  done))
         done;
         Sched.advance crash_cycles;
         Sched.halt ()));
  Nvm.crash ~evict_fraction:evict ~rng (D.nvm t);
  let t2, report = D.attach cfg (D.nvm t) in
  let durable = report.Dudetm_core.Dudetm.durable in
  verify t2 durable;
  Printf.printf "round %3d: crash@%-7d evict=%.2f -> durable %5d, replayed %4d, discarded %2d  OK\n%!"
    seed crash_cycles evict durable report.Dudetm_core.Dudetm.replayed_txs
    report.Dudetm_core.Dudetm.discarded_txs

let () =
  let rounds = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 40 in
  Printf.printf "== crash torture: %d randomized crash/recovery rounds ==\n" rounds;
  for seed = 1 to rounds do
    round seed
  done;
  Printf.printf "\nall %d rounds passed: recovery always restored exactly the durable prefix.\n"
    rounds
