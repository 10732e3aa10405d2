module Rng = Dudetm_sim.Rng
module Ptm = Dudetm_baselines.Ptm_intf

type t = {
  ptm : Ptm.t;
  tree : Bptree_app.t;
  zipf : Zipf.t;
  read_fraction : float;
}

let key_of rank = Int64.of_int (1 + rank)

let setup ptm ~records ~theta ?(read_fraction = 0.5) () =
  if records < 1 then invalid_arg "Ycsb.setup";
  let tree = Bptree_app.create ptm in
  let t = { ptm; tree; zipf = Zipf.create ~n:records ~theta; read_fraction } in
  (* Load in shuffled order so the tree is not pathologically built by
     ascending insertion. *)
  let order = Array.init records (fun i -> i) in
  let rng = Rng.create 7 in
  Rng.shuffle rng order;
  Array.iter
    (fun rank -> Bptree_app.insert tree ~thread:0 ~key:(key_of rank) ~value:(Int64.of_int rank))
    order;
  t

let update_only t ~thread ~rng =
  let rank = Zipf.sample t.zipf rng in
  ignore
    (Bptree_app.update t.tree ~thread ~key:(key_of rank)
       ~value:(Int64.logand (Rng.next_int64 rng) 0xFFFFFFFL))

(* Standard YCSB core-workload operation mixes. *)
type mix = {
  reads : float;
  updates : float;
  inserts : float;
  scans : float;
  rmws : float;
}

let workload_a = { reads = 0.5; updates = 0.5; inserts = 0.0; scans = 0.0; rmws = 0.0 }

let workload_b = { reads = 0.95; updates = 0.05; inserts = 0.0; scans = 0.0; rmws = 0.0 }

let workload_c = { reads = 1.0; updates = 0.0; inserts = 0.0; scans = 0.0; rmws = 0.0 }

let workload_d = { reads = 0.95; updates = 0.0; inserts = 0.05; scans = 0.0; rmws = 0.0 }

let workload_e = { reads = 0.0; updates = 0.0; inserts = 0.05; scans = 0.95; rmws = 0.0 }

let workload_f = { reads = 0.5; updates = 0.0; inserts = 0.0; scans = 0.0; rmws = 0.5 }

(* Inserted keys extend the population past the loaded records; each thread
   draws from its own key range so inserts need no cross-thread
   coordination. *)
let insert_key t ~thread counter =
  let n = Zipf.n t.zipf in
  let k = 1 + n + (thread * 1_000_000) + !counter in
  incr counter;
  Int64.of_int k

let mixed_transaction t mix ~thread ~rng ~insert_counter =
  let u = Rng.float rng in
  let key () = key_of (Zipf.sample t.zipf rng) in
  let value () = Int64.logand (Rng.next_int64 rng) 0xFFFFFFL in
  let outcome =
    if u < mix.reads then
      t.ptm.Ptm.atomically ~thread (fun tx -> ignore (Bptree_app.lookup_tx t.tree tx ~key:(key ())))
    else if u < mix.reads +. mix.updates then
      t.ptm.Ptm.atomically ~thread (fun tx ->
          ignore (Bptree_app.update_tx t.tree tx ~key:(key ()) ~value:(value ())))
    else if u < mix.reads +. mix.updates +. mix.inserts then
      t.ptm.Ptm.atomically ~thread (fun tx ->
          Bptree_app.insert_tx t.tree tx ~key:(insert_key t ~thread insert_counter)
            ~value:(value ()))
    else if u < mix.reads +. mix.updates +. mix.inserts +. mix.scans then begin
      let lo = key () in
      let hi = Int64.add lo (Int64.of_int (1 + Rng.int rng 100)) in
      t.ptm.Ptm.atomically ~thread (fun tx ->
          ignore (Bptree_app.fold_range_tx t.tree tx ~lo ~hi ~init:0 ~f:(fun acc _ _ -> acc + 1)))
    end
    else
      (* read-modify-write *)
      t.ptm.Ptm.atomically ~thread (fun tx ->
          let k = key () in
          match Bptree_app.lookup_tx t.tree tx ~key:k with
          | Some v -> ignore (Bptree_app.update_tx t.tree tx ~key:k ~value:(Int64.add v 1L))
          | None -> ())
  in
  match outcome with Some ((), tid) -> tid | None -> 0

let transaction_tid t ~thread ~rng =
  let rank = Zipf.sample t.zipf rng in
  let key = key_of rank in
  let read_only = Rng.float rng < t.read_fraction in
  let value = Int64.logand (Rng.next_int64 rng) 0xFFFFFFL in
  match
    t.ptm.Ptm.atomically ~thread (fun tx ->
        if read_only then ignore (Bptree_app.lookup_tx t.tree tx ~key)
        else ignore (Bptree_app.update_tx t.tree tx ~key ~value))
  with
  | Some ((), tid) -> tid
  | None -> 0

let tree t = t.tree
