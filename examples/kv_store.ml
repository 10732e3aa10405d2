(* A durable key-value store built on the public API: a B+-tree over the
   persistent heap, accessed through the generic PTM interface, with
   asynchronous durability acknowledgement and crash recovery.

     dune exec examples/kv_store.exe

   Demonstrates the decoupled durability protocol the paper describes in
   Section 5.3: `put` returns as soon as Perform finishes; the caller asks
   for the commit ID and can later check `durable_id` to acknowledge. *)

module Sched = Dudetm_sim.Sched
module Rng = Dudetm_sim.Rng
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module B = Dudetm_baselines
module W = Dudetm_workloads
module Ptm = B.Ptm_intf

let cfg = { Config.default with Config.nthreads = 2; heap_size = 4 * 1024 * 1024 }

(* Store the tree's handle in the root block so the store can be re-opened
   after a crash. *)
let open_store ptm = W.Kv.setup ~desc:ptm.Ptm.root_base ptm W.Kv.Tree ~capacity:0

let reopen_store ptm = W.Kv.attach ~desc:ptm.Ptm.root_base ptm W.Kv.Tree

let key_of_string s =
  (* Tiny demo keys: pack up to 8 bytes, big-endian-ish. *)
  let k = ref 0L in
  String.iter (fun c -> k := Int64.add (Int64.mul !k 256L) (Int64.of_int (Char.code c))) s;
  !k

let () =
  print_endline "== durable key-value store on DudeTM ==";
  let ptm, d = B.Dude_ptm.Stm.ptm cfg in
  let module D = B.Dude_ptm.Stm.D in
  let last_put_tid = ref 0 in
  ignore
    (Sched.run (fun () ->
         ptm.Ptm.start ();
         let kv = open_store ptm in
         (* A few named entries... *)
         List.iter
           (fun (k, v) ->
             ignore (W.Kv.insert kv ~thread:0 ~key:(key_of_string k) ~value:v))
           [ ("alice", 17L); ("bob", 23L); ("carol", 99L) ];
         (* ...and a bulk load from a second thread, concurrently. *)
         let loader =
           Sched.spawn "bulk-loader" (fun () ->
               let rng = Rng.create 7 in
               for i = 1 to 2000 do
                 ignore
                   (W.Kv.insert kv ~thread:1
                      ~key:(Int64.of_int (1000 + i))
                      ~value:(Rng.next_int64 rng))
               done)
         in
         (* An update whose durability we acknowledge explicitly. *)
         (match
            ptm.Ptm.atomically ~thread:0 (fun tx ->
                ignore (W.Kv.update_tx kv tx ~key:(key_of_string "alice") ~value:18L))
          with
         | Some (_, tid) ->
           last_put_tid := tid;
           Printf.printf "put alice=18 committed as transaction %d (not yet durable)\n" tid
         | None -> assert false);
         Sched.wait_until ~label:"alice durable" (fun () -> ptm.Ptm.durable_id () >= !last_put_tid);
         Printf.printf "transaction %d is now durable (durable id %d)\n" !last_put_tid
           (ptm.Ptm.durable_id ());
         (* drain/stop only after every worker has stopped issuing
            transactions — drain cannot know about transactions that have
            not begun yet. *)
         Sched.join ~label:"bulk loader" [ loader ];
         ptm.Ptm.drain ();
         ptm.Ptm.stop ()));
  Printf.printf "store populated: alice=%Ld bob=%Ld entries=%d\n"
    (Option.get (W.Kv.peek_lookup (reopen_store ptm) ~key:(key_of_string "alice")))
    (Option.get (W.Kv.peek_lookup (reopen_store ptm) ~key:(key_of_string "bob")))
    (2003 + 1);

  print_endline "\n-- power failure --";
  Nvm.crash (D.nvm d);
  let ptm2, _, report = B.Dude_ptm.Stm.attach_ptm cfg (D.nvm d) in
  Printf.printf "recovered to durable id %d (%d transactions replayed)\n"
    report.Dudetm_core.Dudetm.durable report.Dudetm_core.Dudetm.replayed_txs;
  let kv = reopen_store ptm2 in
  List.iter
    (fun name ->
      match W.Kv.peek_lookup kv ~key:(key_of_string name) with
      | Some v -> Printf.printf "  %s -> %Ld\n" name v
      | None -> Printf.printf "  %s -> (lost: was not durable before the crash)\n" name)
    [ "alice"; "bob"; "carol" ];
  (match W.Kv.peek_lookup kv ~key:(key_of_string "alice") with
  | Some 18L -> print_endline "OK: the acknowledged update survived the crash."
  | Some v -> Printf.printf "FAILURE: alice=%Ld after recovery\n" v |> fun () -> exit 1
  | None -> print_endline "FAILURE: alice lost" |> fun () -> exit 1);

  (* The recovered store keeps serving requests. *)
  ignore
    (Sched.run (fun () ->
         ptm2.Ptm.start ();
         ignore (W.Kv.insert kv ~thread:0 ~key:(key_of_string "dave") ~value:1L);
         ptm2.Ptm.drain ();
         ptm2.Ptm.stop ()));
  Printf.printf "dave -> %Ld (inserted after recovery)\n"
    (Option.get (W.Kv.peek_lookup kv ~key:(key_of_string "dave")))
