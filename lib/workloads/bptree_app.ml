module Ptm = Dudetm_baselines.Ptm_intf

(* Node layout (256 bytes):
     @0    header: bit0 = leaf, bits 1.. = number of keys
     @8    keys[0..13]
     @120  leaf: values[0..13] / internal: children[0..14]
     @240  leaf: next-leaf pointer (0 = none)                              *)

let fanout = 14

let node_size = 256

type t = {
  ptm : Ptm.t;
  root_ptr : int;  (* address of the cell holding the root node address *)
}

let key_addr node i = node + 8 + (8 * i)

let slot_addr node i = node + 120 + (8 * i)

let next_addr node = node + 240

let header_of ~leaf ~n = Int64.of_int ((n lsl 1) lor if leaf then 1 else 0)

let nkeys h = Int64.to_int h lsr 1

let is_leaf h = Int64.to_int h land 1 = 1

let alloc_node (tx : Ptm.tx) ~leaf =
  let node = tx.Ptm.pmalloc node_size in
  tx.Ptm.write node (header_of ~leaf ~n:0);
  node

let create_tx ptm tx =
  let root_ptr = tx.Ptm.pmalloc 8 in
  let leaf = alloc_node tx ~leaf:true in
  tx.Ptm.write root_ptr (Int64.of_int leaf);
  { ptm; root_ptr }

let create ptm =
  match ptm.Ptm.atomically ~thread:0 (fun tx -> create_tx ptm tx) with
  | Some (t, _) -> t
  | None -> assert false

let handle_addr t = t.root_ptr

let of_handle ptm root_ptr = { ptm; root_ptr }

(* Route a key inside an internal node: the first child whose upper bound
   exceeds the key. *)
let child_index read node n key =
  let rec go i = if i < n && key >= read (key_addr node i) then go (i + 1) else i in
  go 0

(* Position of the first key >= [key] in a node. *)
let lower_bound read node n key =
  let rec go i = if i < n && read (key_addr node i) < key then go (i + 1) else i in
  go 0

let find_leaf read root key =
  let rec go node =
    let h = read node in
    if is_leaf h then (node, nkeys h)
    else
      let n = nkeys h in
      let idx = child_index read node n key in
      go (Int64.to_int (read (slot_addr node idx)))
  in
  go root

let lookup_with read root_ptr key =
  let root = Int64.to_int (read root_ptr) in
  let leaf, n = find_leaf read root key in
  let pos = lower_bound read leaf n key in
  if pos < n && read (key_addr leaf pos) = key then Some (read (slot_addr leaf pos))
  else None

let lookup_tx t (tx : Ptm.tx) ~key = lookup_with tx.Ptm.read t.root_ptr key

let update_tx t (tx : Ptm.tx) ~key ~value =
  let read = tx.Ptm.read in
  let root = Int64.to_int (read t.root_ptr) in
  let leaf, n = find_leaf read root key in
  let pos = lower_bound read leaf n key in
  if pos < n && read (key_addr leaf pos) = key then begin
    tx.Ptm.write (slot_addr leaf pos) value;
    true
  end
  else false

(* Split the full [idx]-th child of [parent]; [parent] must not be full.
   Top-down preemptive splitting keeps insertion single-pass. *)
let split_child (tx : Ptm.tx) parent pidx child =
  let read = tx.Ptm.read and write = tx.Ptm.write in
  let ch = read child in
  let leaf = is_leaf ch in
  let n = nkeys ch in
  assert (n = fanout);
  let mid = fanout / 2 in
  let right = alloc_node tx ~leaf in
  let separator =
    if leaf then begin
      (* right gets keys[mid..n) *)
      for i = mid to n - 1 do
        write (key_addr right (i - mid)) (read (key_addr child i));
        write (slot_addr right (i - mid)) (read (slot_addr child i))
      done;
      write (next_addr right) (read (next_addr child));
      write (next_addr child) (Int64.of_int right);
      write right (header_of ~leaf:true ~n:(n - mid));
      write child (header_of ~leaf:true ~n:mid);
      read (key_addr right 0)
    end
    else begin
      (* separator keys[mid] moves up; right gets keys (mid..n) and
         children (mid..n]. *)
      let sep = read (key_addr child mid) in
      for i = mid + 1 to n - 1 do
        write (key_addr right (i - mid - 1)) (read (key_addr child i))
      done;
      for i = mid + 1 to n do
        write (slot_addr right (i - mid - 1)) (read (slot_addr child i))
      done;
      write right (header_of ~leaf:false ~n:(n - mid - 1));
      write child (header_of ~leaf:false ~n:mid);
      sep
    end
  in
  (* Shift the parent's keys/children right of pidx and link the new
     child. *)
  let pn = nkeys (read parent) in
  for i = pn - 1 downto pidx do
    write (key_addr parent (i + 1)) (read (key_addr parent i))
  done;
  for i = pn downto pidx + 1 do
    write (slot_addr parent (i + 1)) (read (slot_addr parent i))
  done;
  write (key_addr parent pidx) separator;
  write (slot_addr parent (pidx + 1)) (Int64.of_int right);
  write parent (header_of ~leaf:false ~n:(pn + 1))

let insert_tx t (tx : Ptm.tx) ~key ~value =
  let read = tx.Ptm.read and write = tx.Ptm.write in
  let root = Int64.to_int (read t.root_ptr) in
  let root =
    if nkeys (read root) = fanout then begin
      let new_root = alloc_node tx ~leaf:false in
      write (slot_addr new_root 0) (Int64.of_int root);
      split_child tx new_root 0 root;
      write t.root_ptr (Int64.of_int new_root);
      new_root
    end
    else root
  in
  let rec descend node =
    let h = read node in
    let n = nkeys h in
    if is_leaf h then begin
      let pos = lower_bound read node n key in
      if pos < n && read (key_addr node pos) = key then write (slot_addr node pos) value
      else begin
        for i = n - 1 downto pos do
          write (key_addr node (i + 1)) (read (key_addr node i));
          write (slot_addr node (i + 1)) (read (slot_addr node i))
        done;
        write (key_addr node pos) key;
        write (slot_addr node pos) value;
        write node (header_of ~leaf:true ~n:(n + 1))
      end
    end
    else begin
      let idx = child_index read node n key in
      let child = Int64.to_int (read (slot_addr node idx)) in
      if nkeys (read child) = fanout then begin
        split_child tx node idx child;
        (* The separator changed the routing; recompute. *)
        let idx = child_index read node (nkeys (read node)) key in
        descend (Int64.to_int (read (slot_addr node idx)))
      end
      else descend child
    end
  in
  descend root

(* Fold over bindings with lo <= key <= hi, in key order, following the
   leaf chain. *)
let fold_range_tx t (tx : Ptm.tx) ~lo ~hi ~init ~f =
  let read = tx.Ptm.read in
  let root = Int64.to_int (read t.root_ptr) in
  let leaf, _ = find_leaf read root lo in
  let rec walk leaf acc =
    if leaf = 0 then acc
    else begin
      let n = nkeys (read leaf) in
      let rec scan i acc =
        if i >= n then walk (Int64.to_int (read (next_addr leaf))) acc
        else begin
          let k = read (key_addr leaf i) in
          if k > hi then acc
          else if k < lo then scan (i + 1) acc
          else scan (i + 1) (f acc k (read (slot_addr leaf i)))
        end
      in
      scan 0 acc
    end
  in
  walk leaf init

let run_tx t ~thread f =
  match t.ptm.Ptm.atomically ~thread f with Some (r, _) -> r | None -> assert false

let insert t ~thread ~key ~value = run_tx t ~thread (fun tx -> insert_tx t tx ~key ~value)

let lookup t ~thread ~key = run_tx t ~thread (fun tx -> lookup_tx t tx ~key)

let update t ~thread ~key ~value = run_tx t ~thread (fun tx -> update_tx t tx ~key ~value)

(* --------------------------- test support --------------------------- *)

let peek_bindings t =
  let read = t.ptm.Ptm.peek in
  let rec leftmost node =
    let h = read node in
    if is_leaf h then node else leftmost (Int64.to_int (read (slot_addr node 0)))
  in
  let rec walk leaf acc =
    if leaf = 0 then List.rev acc
    else begin
      let n = nkeys (read leaf) in
      let acc = ref acc in
      for i = 0 to n - 1 do
        acc := (read (key_addr leaf i), read (slot_addr leaf i)) :: !acc
      done;
      walk (Int64.to_int (read (next_addr leaf))) !acc
    end
  in
  walk (leftmost (Int64.to_int (read t.root_ptr))) []

let check_invariants t =
  let read = t.ptm.Ptm.peek in
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec check node ~lo ~hi ~depth =
    let h = read node in
    let n = nkeys h in
    if n > fanout then fail "node 0x%x has %d keys" node n;
    for i = 0 to n - 1 do
      let k = read (key_addr node i) in
      (match lo with Some l when k < l -> fail "key below bound in 0x%x" node | _ -> ());
      (match hi with Some u when k >= u -> fail "key above bound in 0x%x" node | _ -> ());
      if i > 0 && read (key_addr node (i - 1)) >= k then fail "unsorted keys in 0x%x" node
    done;
    if is_leaf h then depth
    else begin
      if n = 0 then fail "empty internal node 0x%x" node;
      let depths =
        List.init (n + 1) (fun i ->
            let child = Int64.to_int (read (slot_addr node i)) in
            let lo' = if i = 0 then lo else Some (read (key_addr node (i - 1))) in
            let hi' = if i = n then hi else Some (read (key_addr node i)) in
            check child ~lo:lo' ~hi:hi' ~depth:(depth + 1))
      in
      match depths with
      | d :: rest ->
        if not (List.for_all (fun x -> x = d) rest) then fail "uneven depths under 0x%x" node;
        d
      | [] -> assert false
    end
  in
  let root = Int64.to_int (read t.root_ptr) in
  ignore (check root ~lo:None ~hi:None ~depth:0);
  (* Leaf chain must enumerate keys in sorted order. *)
  let bindings = peek_bindings t in
  let rec sorted = function
    | (k1, _) :: ((k2, _) :: _ as rest) ->
      if k1 >= k2 then fail "leaf chain out of order";
      sorted rest
    | _ -> ()
  in
  sorted bindings
