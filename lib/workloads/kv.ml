module Ptm = Dudetm_baselines.Ptm_intf

type kind = Hash | Tree

type t = H of Hashtable_app.t | T of Bptree_app.t

let kind = function H _ -> Hash | T _ -> Tree

let setup ?desc ptm kind ~capacity =
  match kind with
  | Hash -> H (Hashtable_app.setup ?desc ptm ~capacity)
  | Tree ->
    let tree = Bptree_app.create ptm in
    (match desc with
    | Some d ->
      (* Persist the tree's handle address so the table can be
         re-attached. *)
      (match
         ptm.Ptm.atomically ~thread:0 (fun tx ->
             tx.Ptm.write d (Int64.of_int (Bptree_app.handle_addr tree)))
       with
      | Some _ -> ()
      | None -> assert false)
    | None -> ());
    T tree

let attach ?desc ptm kind =
  let d = match desc with Some d -> d | None -> ptm.Ptm.root_base in
  match kind with
  | Hash -> H (Hashtable_app.attach ~desc:d ptm)
  | Tree -> T (Bptree_app.of_handle ptm (Int64.to_int (ptm.Ptm.peek d)))

let insert_tx t tx ~key ~value =
  match t with
  | H h -> Hashtable_app.insert_tx h tx ~key ~value
  | T b ->
    Bptree_app.insert_tx b tx ~key ~value;
    true

let lookup_tx t tx ~key =
  match t with
  | H h -> Hashtable_app.lookup_tx h tx ~key
  | T b -> Bptree_app.lookup_tx b tx ~key

let update_tx t tx ~key ~value =
  match t with
  | H h -> Hashtable_app.update_tx h tx ~key ~value
  | T b -> Bptree_app.update_tx b tx ~key ~value

let insert t ~thread ~key ~value =
  match t with
  | H h -> Hashtable_app.insert h ~thread ~key ~value
  | T b ->
    Bptree_app.insert b ~thread ~key ~value;
    true

let lookup t ~thread ~key =
  match t with
  | H h -> Hashtable_app.lookup h ~thread ~key
  | T b -> Bptree_app.lookup b ~thread ~key

let update t ~thread ~key ~value =
  match t with
  | H h -> Hashtable_app.update h ~thread ~key ~value
  | T b -> Bptree_app.update b ~thread ~key ~value

let peek_lookup t ~key =
  match t with
  | H h -> Hashtable_app.peek_lookup h ~key
  | T b -> ( match List.assoc_opt key (Bptree_app.peek_bindings b) with v -> v)

let plan_insert t ~key =
  match t with
  | H h -> Hashtable_app.plan_insert h ~key
  | T _ -> invalid_arg "Kv.plan_insert: trees do not support static transactions"
