module Ptm = Dudetm_baselines.Ptm_intf

type t = {
  ptm : Ptm.t;
  base : int;
  capacity : int;  (* power of two *)
  mask : int;
}

let slot_size = 24

let addr_key t slot = t.base + (slot_size * slot)

let addr_tag t slot = t.base + (slot_size * slot) + 8

let addr_value t slot = t.base + (slot_size * slot) + 16

let hash t key =
  (* Fibonacci hashing of the key's low bits.  Charged: computing the hash
     and locating the bucket is real work in the paper's benchmark too. *)
  Dudetm_sim.Sched.advance 40;
  let k = Int64.to_int (Int64.logand key 0x3FFFFFFFFFFFFFFFL) in
  k * 0x2545F4914F6CDD1D land max_int land t.mask

let round_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 16

(* The table's location is persisted as a two-word descriptor (base,
   capacity) so it can be re-attached after a restart; by default it lives
   at the start of the root block. *)
let setup ?desc ptm ~capacity =
  let capacity = round_pow2 capacity in
  let desc = match desc with Some d -> d | None -> ptm.Ptm.root_base in
  let base =
    match ptm.Ptm.prealloc with
    | Some alloc ->
      let base = alloc (capacity * slot_size) in
      (match
         ptm.Ptm.atomically ~thread:0 ~wset:[ desc; desc + 8 ] (fun tx ->
             tx.Ptm.write desc (Int64.of_int base);
             tx.Ptm.write (desc + 8) (Int64.of_int capacity))
       with
      | Some _ -> base
      | None -> assert false)
    | None -> (
      match
        ptm.Ptm.atomically ~thread:0 (fun tx ->
            let base = tx.Ptm.pmalloc (capacity * slot_size) in
            tx.Ptm.write desc (Int64.of_int base);
            tx.Ptm.write (desc + 8) (Int64.of_int capacity);
            base)
      with
      | Some (base, _) -> base
      | None -> assert false)
  in
  { ptm; base; capacity; mask = capacity - 1 }

let attach ?desc ptm =
  let desc = match desc with Some d -> d | None -> ptm.Ptm.root_base in
  let base = Int64.to_int (ptm.Ptm.peek desc) in
  let capacity = Int64.to_int (ptm.Ptm.peek (desc + 8)) in
  if capacity < 16 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Hashtable_app.attach: descriptor does not hold a table";
  { ptm; base; capacity; mask = capacity - 1 }

(* Probe within a transaction: first slot that is empty or holds [key].
   Raises [Not_found] after a full cycle (table full). *)
let probe_tx t read ~key =
  let start = hash t key in
  let rec go i n =
    if n >= t.capacity then raise Not_found
    else
      let k = read (addr_key t i) in
      if k = 0L || k = key then i else go ((i + 1) land t.mask) (n + 1)
  in
  go start 0

let insert_slot t (tx : Ptm.tx) slot ~key ~value =
  tx.Ptm.write (addr_key t slot) key;
  tx.Ptm.write (addr_tag t slot) (Int64.logxor key 0x5DEECE66DL);
  tx.Ptm.write (addr_value t slot) value

let insert_tx t tx ~key ~value =
  if key = 0L then invalid_arg "Hashtable_app: zero key";
  match probe_tx t tx.Ptm.read ~key with
  | slot ->
    insert_slot t tx slot ~key ~value;
    true
  | exception Not_found -> false

let lookup_tx t tx ~key =
  match probe_tx t tx.Ptm.read ~key with
  | slot ->
    if tx.Ptm.read (addr_key t slot) = key then Some (tx.Ptm.read (addr_value t slot))
    else None
  | exception Not_found -> None

let update_tx t tx ~key ~value =
  match probe_tx t tx.Ptm.read ~key with
  | slot ->
    if tx.Ptm.read (addr_key t slot) = key then begin
      tx.Ptm.write (addr_value t slot) value;
      true
    end
    else false
  | exception Not_found -> false

(* Static planning: probe non-transactionally against the current image. *)
let plan_probe t ~key =
  match probe_tx t t.ptm.Ptm.peek ~key with slot -> Some slot | exception Not_found -> None

let plan_insert t ~key =
  match plan_probe t ~key with
  | Some slot -> [ addr_key t slot; addr_tag t slot; addr_value t slot ]
  | None -> []

let plan_update t ~key =
  match plan_probe t ~key with
  | Some slot when t.ptm.Ptm.peek (addr_key t slot) = key -> [ addr_value t slot ]
  | Some _ | None -> []

let peek_lookup t ~key =
  match plan_probe t ~key with
  | Some slot ->
    if t.ptm.Ptm.peek (addr_key t slot) = key then Some (t.ptm.Ptm.peek (addr_value t slot))
    else None
  | None -> None

let max_static_retries = 64

(* Static execution: lock the planned slot's addresses, re-validate inside
   the transaction, and replan if a concurrent transaction changed the
   probe path.  [run tx slot] returns [Some result] when the plan is still
   valid and [None] to trigger a replan. *)
let rec static_op t ~thread ~key ~plan ~run ~retries =
  if retries > max_static_retries then failwith "Hashtable_app: static plan never stabilized";
  match plan_probe t ~key with
  | None -> false
  | Some slot -> (
    let wset = plan t ~key in
    let stale = ref false in
    match
      t.ptm.Ptm.atomically ~thread ~wset (fun tx ->
          match run tx slot with
          | Some ok -> ok
          | None ->
            stale := true;
            tx.Ptm.abort ();
            false)
    with
    | Some (ok, _) -> ok
    | None ->
      if !stale then static_op t ~thread ~key ~plan ~run ~retries:(retries + 1) else false)

let insert t ~thread ~key ~value =
  if key = 0L then invalid_arg "Hashtable_app: zero key";
  if t.ptm.Ptm.requires_static then
    static_op t ~thread ~key ~plan:plan_insert
      ~run:(fun tx slot ->
        let k = tx.Ptm.read (addr_key t slot) in
        if k = 0L || k = key then begin
          insert_slot t tx slot ~key ~value;
          Some true
        end
        else None)
      ~retries:0
  else
    match t.ptm.Ptm.atomically ~thread (fun tx -> insert_tx t tx ~key ~value) with
    | Some (ok, _) -> ok
    | None -> false

let lookup t ~thread ~key =
  if t.ptm.Ptm.requires_static then
    (* Reads need no locks in NVML-style usage; peek against the image
       under a trivial transaction for cost parity. *)
    match t.ptm.Ptm.atomically ~thread ~wset:[] (fun tx -> lookup_tx t tx ~key) with
    | Some (r, _) -> r
    | None -> None
  else
    match t.ptm.Ptm.atomically ~thread (fun tx -> lookup_tx t tx ~key) with
    | Some (r, _) -> r
    | None -> None

let update t ~thread ~key ~value =
  if t.ptm.Ptm.requires_static then begin
    if plan_update t ~key = [] then false
    else
      static_op t ~thread ~key ~plan:plan_update
        ~run:(fun tx slot ->
          let k = tx.Ptm.read (addr_key t slot) in
          if k = key then begin
            tx.Ptm.write (addr_value t slot) value;
            Some true
          end
          else None)
        ~retries:0
  end
  else
    match t.ptm.Ptm.atomically ~thread (fun tx -> update_tx t tx ~key ~value) with
    | Some (ok, _) -> ok
    | None -> false

let insert_planned _t tx ~plan ~key ~value =
  match plan with
  | [ kaddr; taddr; vaddr ] ->
    tx.Ptm.write kaddr key;
    tx.Ptm.write taddr (Int64.logxor key 0x5DEECE66DL);
    tx.Ptm.write vaddr value
  | _ -> invalid_arg "Hashtable_app.insert_planned: malformed plan"

let plan_is_current tx ~plan ~key =
  match plan with
  | kaddr :: _ ->
    let k = tx.Ptm.read kaddr in
    k = 0L || k = key
  | [] -> false

let peek_bindings t =
  let rec go slot acc =
    if slot >= t.capacity then List.rev acc
    else
      let k = t.ptm.Ptm.peek (addr_key t slot) in
      if k = 0L then go (slot + 1) acc
      else go (slot + 1) ((k, t.ptm.Ptm.peek (addr_value t slot)) :: acc)
  in
  go 0 []
