module Ptm = Dudetm_baselines.Ptm_intf
module Rng = Dudetm_sim.Rng

(* Record layouts (all fields are u64):
   warehouse: ytd @0                                   (16 bytes, padded)
   district: next_o_id @0, ytd @8                      (16 bytes)
   customer: balance @0, ytd_payment @8, payment_cnt @16 (24 bytes)
   item:     price @0                                  (16 bytes, padded)
   stock:    quantity @0, ytd @8, order_cnt @16        (24 bytes)
   order:    c_id @0, ol_cnt @8, all_local @16         (24 bytes)
   order line: i_id @0, quantity @8, amount @16        (24 bytes)
   history:  c_key @0, amount @8                       (16 bytes) *)

type t = {
  ptm : Ptm.t;
  storage : Kv.kind;
  districts : int;
  items : int;
  customers : int;  (* per district *)
  warehouse_rec : int;
  district_recs : int array;
  customer_base : int;  (* contiguous customer records *)
  item_base : int;
  stock : Kv.t;
  orders : Kv.t array;
  order_lines : Kv.t array;
  new_orders : Kv.t array;
}

let customer_rec t ~d ~c = t.customer_base + (24 * (((d - 1) * t.customers) + (c - 1)))

let item_price_addr t i = t.item_base + (16 * (i - 1))

(* Inputs are sampled before the transaction begins, so a conflict retry
   re-executes the same customer request. *)
type order_input = {
  d : int;
  c_id : int;
  lines : (int * int) array;  (* (item id, quantity) *)
}

let sample_input t ~rng ~district =
  let d = match district with Some d -> d | None -> 1 + Rng.int rng t.districts in
  if d < 1 || d > t.districts then invalid_arg "Tpcc: bad district";
  let n = 5 + Rng.int rng 11 in
  {
    d;
    c_id = 1 + Rng.int rng 3000;
    lines = Array.init n (fun _ -> (1 + Rng.int rng t.items, 1 + Rng.int rng 10));
  }

let root_magic = 0x54504343524F4F54L (* "TPCCROOT" *)

let stock_update ~qty s_qty =
  let q = Int64.to_int s_qty - qty in
  Int64.of_int (if q >= 10 then q else q + 91)

(* ------------------------------- setup ------------------------------- *)

let setup ptm ~storage ?(items = 1000) ?(customers = 300) ?(expected_orders = 65536) () =
  let districts = 10 in
  let static = ptm.Ptm.requires_static in
  if static && storage = Kv.Tree then
    invalid_arg "Tpcc: tree storage is not available on static-transaction systems";
  (* District records and the item table. *)
  let alloc_block n ~init =
    if static then begin
      let base = Option.get ptm.Ptm.prealloc n in
      let writes = init base in
      (match
         ptm.Ptm.atomically ~thread:0 ~wset:(List.map fst writes) (fun tx ->
             List.iter (fun (addr, v) -> tx.Ptm.write addr v) writes)
       with
      | Some _ -> ()
      | None -> assert false);
      base
    end
    else
      match
        ptm.Ptm.atomically ~thread:0 (fun tx ->
            let base = tx.Ptm.pmalloc n in
            List.iter (fun (addr, v) -> tx.Ptm.write addr v) (init base);
            base)
      with
      | Some (base, _) -> base
      | None -> assert false
  in
  let warehouse_rec = alloc_block 16 ~init:(fun base -> [ (base, 0L) ]) in
  let district_block =
    alloc_block (16 * districts) ~init:(fun base ->
        List.init districts (fun i -> (base + (16 * i), 1L)))
  in
  let district_recs = Array.init districts (fun i -> district_block + (16 * i)) in
  (* Customers start with a zero balance; the heap is zero-initialized, so
     no per-row writes are needed. *)
  let customer_base =
    alloc_block (24 * districts * customers) ~init:(fun _ -> [])
  in
  let item_base =
    alloc_block (16 * items) ~init:(fun base ->
        List.init items (fun i -> (base + (16 * i), Int64.of_int (100 + (i mod 900)))))
  in
  (* Stock rows + the stock table. *)
  let root = ptm.Ptm.root_base in
  let stock = Kv.setup ~desc:(root + 48) ptm storage ~capacity:(2 * items) in
  for i = 1 to items do
    let rec_addr =
      alloc_block 24 ~init:(fun base -> [ (base, 100L); (base + 8, 0L); (base + 16, 0L) ])
    in
    if static then begin
      let key = Int64.of_int i in
      let plan = Kv.plan_insert stock ~key in
      match
        ptm.Ptm.atomically ~thread:0 ~wset:plan (fun tx ->
            match stock with
            | Kv.H h -> Hashtable_app.insert_planned h tx ~plan ~key ~value:(Int64.of_int rec_addr)
            | Kv.T _ -> assert false)
      with
      | Some _ -> ()
      | None -> assert false
    end
    else if not (Kv.insert stock ~thread:0 ~key:(Int64.of_int i) ~value:(Int64.of_int rec_addr))
    then failwith "Tpcc.setup: stock table full"
  done;
  let district_desc d slot = root + 64 + (48 * d) + (16 * slot) in
  let make_order_tables slot =
    Array.init districts (fun d ->
        Kv.setup ~desc:(district_desc d slot) ptm storage ~capacity:expected_orders)
  in
  let t =
    {
      ptm;
      storage;
      districts;
      items;
      customers;
      warehouse_rec;
      district_recs;
      customer_base;
      item_base;
      stock;
      orders = make_order_tables 0;
      order_lines = make_order_tables 1;
      new_orders = make_order_tables 2;
    }
  in
  (* Persist the root directory so the whole database can be re-attached
     after a crash (the magic word goes last, transactionally with the
     rest, so a torn setup never looks attachable). *)
  let directory =
    [
      (root + 8, Int64.of_int districts);
      (root + 16, Int64.of_int items);
      (root + 24, (match storage with Kv.Hash -> 0L | Kv.Tree -> 1L));
      (root + 32, Int64.of_int district_block);
      (root + 40, Int64.of_int item_base);
      (root + 544, Int64.of_int warehouse_rec);
      (root + 552, Int64.of_int customer_base);
      (root + 560, Int64.of_int customers);
      (root, root_magic);
    ]
  in
  (match
     if static then
       ptm.Ptm.atomically ~thread:0 ~wset:(List.map fst directory) (fun tx ->
           List.iter (fun (a, v) -> tx.Ptm.write a v) directory)
     else
       ptm.Ptm.atomically ~thread:0 (fun tx ->
           List.iter (fun (a, v) -> tx.Ptm.write a v) directory)
   with
  | Some _ -> ()
  | None -> assert false);
  t

let attach ptm =
  let root = ptm.Ptm.root_base in
  if ptm.Ptm.peek root <> root_magic then invalid_arg "Tpcc.attach: no TPC-C root directory";
  let districts = Int64.to_int (ptm.Ptm.peek (root + 8)) in
  let items = Int64.to_int (ptm.Ptm.peek (root + 16)) in
  let storage = if ptm.Ptm.peek (root + 24) = 0L then Kv.Hash else Kv.Tree in
  let district_block = Int64.to_int (ptm.Ptm.peek (root + 32)) in
  let item_base = Int64.to_int (ptm.Ptm.peek (root + 40)) in
  let district_desc d slot = root + 64 + (48 * d) + (16 * slot) in
  {
    ptm;
    storage;
    districts;
    items;
    customers = Int64.to_int (ptm.Ptm.peek (root + 560));
    warehouse_rec = Int64.to_int (ptm.Ptm.peek (root + 544));
    district_recs = Array.init districts (fun i -> district_block + (16 * i));
    customer_base = Int64.to_int (ptm.Ptm.peek (root + 552));
    item_base;
    stock = Kv.attach ~desc:(root + 48) ptm storage;
    orders = Array.init districts (fun d -> Kv.attach ~desc:(district_desc d 0) ptm storage);
    order_lines = Array.init districts (fun d -> Kv.attach ~desc:(district_desc d 1) ptm storage);
    new_orders = Array.init districts (fun d -> Kv.attach ~desc:(district_desc d 2) ptm storage);
  }

(* --------------------------- dynamic path ---------------------------- *)

let new_order_dynamic t ~thread input =
  let d_rec = t.district_recs.(input.d - 1) in
  let di = input.d - 1 in
  let outcome =
    t.ptm.Ptm.atomically ~thread (fun tx ->
        let o_id = tx.Ptm.read d_rec in
        tx.Ptm.write d_rec (Int64.add o_id 1L);
        let order_rec = tx.Ptm.pmalloc 24 in
        tx.Ptm.write order_rec (Int64.of_int input.c_id);
        tx.Ptm.write (order_rec + 8) (Int64.of_int (Array.length input.lines));
        tx.Ptm.write (order_rec + 16) 1L;
        if not (Kv.insert_tx t.orders.(di) tx ~key:o_id ~value:(Int64.of_int order_rec)) then
          failwith "Tpcc: orders table full";
        if not (Kv.insert_tx t.new_orders.(di) tx ~key:o_id ~value:1L) then
          failwith "Tpcc: new-order table full";
        Array.iteri
          (fun k (i, qty) ->
            let s_rec =
              match Kv.lookup_tx t.stock tx ~key:(Int64.of_int i) with
              | Some a -> Int64.to_int a
              | None -> failwith "Tpcc: missing stock row"
            in
            let s_qty = tx.Ptm.read s_rec in
            tx.Ptm.write s_rec (stock_update ~qty s_qty);
            tx.Ptm.write (s_rec + 8) (Int64.add (tx.Ptm.read (s_rec + 8)) (Int64.of_int qty));
            tx.Ptm.write (s_rec + 16) (Int64.add (tx.Ptm.read (s_rec + 16)) 1L);
            let price = tx.Ptm.read (item_price_addr t i) in
            let amount = Int64.mul price (Int64.of_int qty) in
            let ol_rec = tx.Ptm.pmalloc 24 in
            tx.Ptm.write ol_rec (Int64.of_int i);
            tx.Ptm.write (ol_rec + 8) (Int64.of_int qty);
            tx.Ptm.write (ol_rec + 16) amount;
            let ol_key = Int64.add (Int64.mul o_id 16L) (Int64.of_int k) in
            if not (Kv.insert_tx t.order_lines.(di) tx ~key:ol_key ~value:(Int64.of_int ol_rec))
            then failwith "Tpcc: order-line table full")
          input.lines)
  in
  match outcome with Some (_, tid) -> tid | None -> assert false

(* ---------------------------- static path ---------------------------- *)

let max_static_retries = 64

let new_order_static t ~thread input =
  let d_rec = t.district_recs.(input.d - 1) in
  let di = input.d - 1 in
  let n = Array.length input.lines in
  let rec attempt retries =
    if retries > max_static_retries then failwith "Tpcc: static plan never stabilized";
    (* Plan: read the would-be order id, pre-allocate records, compute
       every address the transaction will write, then lock and validate. *)
    let o_id = t.ptm.Ptm.peek d_rec in
    let prealloc = Option.get t.ptm.Ptm.prealloc in
    let order_rec = prealloc 24 in
    let ol_recs = Array.init n (fun _ -> prealloc 24) in
    let order_plan = Kv.plan_insert t.orders.(di) ~key:o_id in
    let marker_plan = Kv.plan_insert t.new_orders.(di) ~key:o_id in
    let ol_keys = Array.init n (fun k -> Int64.add (Int64.mul o_id 16L) (Int64.of_int k)) in
    let ol_plans = Array.map (fun key -> Kv.plan_insert t.order_lines.(di) ~key) ol_keys in
    let stock_recs =
      Array.map
        (fun (i, _) ->
          match Kv.peek_lookup t.stock ~key:(Int64.of_int i) with
          | Some a -> Int64.to_int a
          | None -> failwith "Tpcc: missing stock row")
        input.lines
    in
    let wset =
      (d_rec :: [ order_rec; order_rec + 8; order_rec + 16 ])
      @ order_plan @ marker_plan
      @ List.concat (Array.to_list (Array.map (fun p -> p) ol_plans))
      @ List.concat
          (Array.to_list
             (Array.map (fun s -> [ s; s + 8; s + 16 ]) stock_recs))
      @ List.concat (Array.to_list (Array.map (fun r -> [ r; r + 8; r + 16 ]) ol_recs))
    in
    let stale = ref false in
    let outcome =
      t.ptm.Ptm.atomically ~thread ~wset (fun tx ->
          let valid =
            tx.Ptm.read d_rec = o_id
            && Hashtable_app.plan_is_current tx ~plan:order_plan ~key:o_id
            && Hashtable_app.plan_is_current tx ~plan:marker_plan ~key:o_id
            && Array.for_all2
                 (fun plan key -> Hashtable_app.plan_is_current tx ~plan ~key)
                 ol_plans ol_keys
          in
          if not valid then begin
            stale := true;
            tx.Ptm.abort ()
          end;
          tx.Ptm.write d_rec (Int64.add o_id 1L);
          tx.Ptm.write order_rec (Int64.of_int input.c_id);
          tx.Ptm.write (order_rec + 8) (Int64.of_int n);
          tx.Ptm.write (order_rec + 16) 1L;
          let h kv = match kv with Kv.H h -> h | Kv.T _ -> assert false in
          Hashtable_app.insert_planned (h t.orders.(di)) tx ~plan:order_plan ~key:o_id
            ~value:(Int64.of_int order_rec);
          Hashtable_app.insert_planned (h t.new_orders.(di)) tx ~plan:marker_plan ~key:o_id
            ~value:1L;
          Array.iteri
            (fun k (i, qty) ->
              let s_rec = stock_recs.(k) in
              let s_qty = tx.Ptm.read s_rec in
              tx.Ptm.write s_rec (stock_update ~qty s_qty);
              tx.Ptm.write (s_rec + 8) (Int64.add (tx.Ptm.read (s_rec + 8)) (Int64.of_int qty));
              tx.Ptm.write (s_rec + 16) (Int64.add (tx.Ptm.read (s_rec + 16)) 1L);
              let price = tx.Ptm.read (item_price_addr t i) in
              let ol_rec = ol_recs.(k) in
              tx.Ptm.write ol_rec (Int64.of_int i);
              tx.Ptm.write (ol_rec + 8) (Int64.of_int qty);
              tx.Ptm.write (ol_rec + 16) (Int64.mul price (Int64.of_int qty));
              Hashtable_app.insert_planned (h t.order_lines.(di)) tx ~plan:ol_plans.(k)
                ~key:ol_keys.(k) ~value:(Int64.of_int ol_rec))
            input.lines)
    in
    match outcome with
    | Some (_, tid) -> tid
    | None ->
      if !stale then attempt (retries + 1) else assert false
  in
  attempt 0

let new_order t ~thread ~rng ?district () =
  let input = sample_input t ~rng ~district in
  if t.ptm.Ptm.requires_static then new_order_static t ~thread input
  else new_order_dynamic t ~thread input

(* ------------------------------ Payment ------------------------------ *)

(* TPC-C Payment: a customer pays [amount]; the warehouse, district and
   customer rows update, and a history record is written.  5 field updates
   plus a fresh history row — short and write-only, contrasting with New
   Order's bulk. *)
type payment_input = { pd : int; pc : int; amount : int64 }

let sample_payment t ~rng ~district =
  let d = match district with Some d -> d | None -> 1 + Rng.int rng t.districts in
  { pd = d; pc = 1 + Rng.int rng t.customers; amount = Int64.of_int (1 + Rng.int rng 5000) }

let payment_dynamic t ~thread input =
  let d_rec = t.district_recs.(input.pd - 1) in
  let c_rec = customer_rec t ~d:input.pd ~c:input.pc in
  match
    t.ptm.Ptm.atomically ~thread (fun tx ->
        tx.Ptm.write t.warehouse_rec (Int64.add (tx.Ptm.read t.warehouse_rec) input.amount);
        tx.Ptm.write (d_rec + 8) (Int64.add (tx.Ptm.read (d_rec + 8)) input.amount);
        tx.Ptm.write c_rec (Int64.sub (tx.Ptm.read c_rec) input.amount);
        tx.Ptm.write (c_rec + 8) (Int64.add (tx.Ptm.read (c_rec + 8)) input.amount);
        tx.Ptm.write (c_rec + 16) (Int64.add (tx.Ptm.read (c_rec + 16)) 1L);
        let hist = tx.Ptm.pmalloc 16 in
        tx.Ptm.write hist (Int64.of_int (((input.pd - 1) * t.customers) + input.pc));
        tx.Ptm.write (hist + 8) input.amount)
  with
  | Some (_, tid) -> tid
  | None -> assert false

let payment_static t ~thread input =
  let d_rec = t.district_recs.(input.pd - 1) in
  let c_rec = customer_rec t ~d:input.pd ~c:input.pc in
  let hist = Option.get t.ptm.Ptm.prealloc 16 in
  let wset =
    [ t.warehouse_rec; d_rec + 8; c_rec; c_rec + 8; c_rec + 16; hist; hist + 8 ]
  in
  match
    t.ptm.Ptm.atomically ~thread ~wset (fun tx ->
        tx.Ptm.write t.warehouse_rec (Int64.add (tx.Ptm.read t.warehouse_rec) input.amount);
        tx.Ptm.write (d_rec + 8) (Int64.add (tx.Ptm.read (d_rec + 8)) input.amount);
        tx.Ptm.write c_rec (Int64.sub (tx.Ptm.read c_rec) input.amount);
        tx.Ptm.write (c_rec + 8) (Int64.add (tx.Ptm.read (c_rec + 8)) input.amount);
        tx.Ptm.write (c_rec + 16) (Int64.add (tx.Ptm.read (c_rec + 16)) 1L);
        tx.Ptm.write hist (Int64.of_int (((input.pd - 1) * t.customers) + input.pc));
        tx.Ptm.write (hist + 8) input.amount)
  with
  | Some (_, tid) -> tid
  | None -> assert false

let payment t ~thread ~rng ?district () =
  let input = sample_payment t ~rng ~district in
  if t.ptm.Ptm.requires_static then payment_static t ~thread input
  else payment_dynamic t ~thread input

(* ---------------------------- Order-Status --------------------------- *)

(* Read-only: fetch a recent order of a district and sum its lines. *)
let order_status t ~thread ~rng ?district () =
  let d = match district with Some d -> d | None -> 1 + Rng.int rng t.districts in
  let di = d - 1 in
  let outcome =
    t.ptm.Ptm.atomically ~thread (fun tx ->
        let next = tx.Ptm.read t.district_recs.(di) in
        if next <= 1L then 0L
        else begin
          let o_id = Int64.of_int (1 + Rng.int rng (Int64.to_int next - 1)) in
          match Kv.lookup_tx t.orders.(di) tx ~key:o_id with
          | None -> 0L
          | Some rec_addr ->
            let cnt = Int64.to_int (tx.Ptm.read (Int64.to_int rec_addr + 8)) in
            let total = ref 0L in
            for k = 0 to cnt - 1 do
              match
                Kv.lookup_tx t.order_lines.(di) tx
                  ~key:(Int64.add (Int64.mul o_id 16L) (Int64.of_int k))
              with
              | Some ol -> total := Int64.add !total (tx.Ptm.read (Int64.to_int ol + 16))
              | None -> ()
            done;
            !total
        end)
  in
  match outcome with Some (total, _) -> total | None -> assert false

(* ---------------------------- mixed driver --------------------------- *)

let transaction t ~thread ~rng ?district () =
  (* Approximate spec mix: 45% New Order, 45% Payment, 10% Order-Status. *)
  let u = Rng.int rng 100 in
  if u < 45 then new_order t ~thread ~rng ?district ()
  else if u < 90 then payment t ~thread ~rng ?district ()
  else begin
    ignore (order_status t ~thread ~rng ?district ());
    0
  end

(* --------------------------- verification ---------------------------- *)

let peek_count kv =
  match kv with
  | Kv.H h -> List.length (Hashtable_app.peek_bindings h)
  | Kv.T b -> List.length (Bptree_app.peek_bindings b)

let order_count t ~district = peek_count t.orders.(district - 1)

let consistency_check t =
  let peek = t.ptm.Ptm.peek in
  let fail fmt = Printf.ksprintf failwith fmt in
  let total_lines = ref 0 in
  for d = 1 to t.districts do
    let di = d - 1 in
    let next = Int64.to_int (peek t.district_recs.(di)) in
    let n_orders = peek_count t.orders.(di) in
    let n_markers = peek_count t.new_orders.(di) in
    if n_orders <> next - 1 then
      fail "district %d: next_o_id %d but %d orders" d next n_orders;
    if n_markers <> n_orders then
      fail "district %d: %d orders but %d new-order markers" d n_orders n_markers;
    let bindings =
      match t.orders.(di) with
      | Kv.H h -> Hashtable_app.peek_bindings h
      | Kv.T b -> Bptree_app.peek_bindings b
    in
    List.iter
      (fun (o_id, rec_addr) ->
        let rec_addr = Int64.to_int rec_addr in
        let cnt = Int64.to_int (peek (rec_addr + 8)) in
        if cnt < 5 || cnt > 15 then fail "district %d order %Ld: bad ol_cnt %d" d o_id cnt;
        total_lines := !total_lines + cnt;
        for k = 0 to cnt - 1 do
          let ol_key = Int64.add (Int64.mul o_id 16L) (Int64.of_int k) in
          match Kv.peek_lookup t.order_lines.(di) ~key:ol_key with
          | Some ol_rec ->
            let i = Int64.to_int (peek (Int64.to_int ol_rec)) in
            if i < 1 || i > t.items then fail "order line with bad item %d" i
          | None -> fail "district %d order %Ld: missing order line %d" d o_id k
        done)
      bindings
  done;
  (* Stock order counts must equal the number of order lines. *)
  let stock_cnt = ref 0 in
  for i = 1 to t.items do
    match Kv.peek_lookup t.stock ~key:(Int64.of_int i) with
    | Some rec_addr -> stock_cnt := !stock_cnt + Int64.to_int (peek (Int64.to_int rec_addr + 16))
    | None -> fail "missing stock row %d" i
  done;
  if !stock_cnt <> !total_lines then
    fail "stock order_cnt total %d but %d order lines exist" !stock_cnt !total_lines;
  (* Payment invariants: warehouse YTD equals the sum of district YTDs,
     and equals the total paid by customers (their ytd_payment). *)
  let d_ytd = ref 0L in
  for d = 1 to t.districts do
    d_ytd := Int64.add !d_ytd (peek (t.district_recs.(d - 1) + 8))
  done;
  let w_ytd = peek t.warehouse_rec in
  if w_ytd <> !d_ytd then fail "warehouse ytd %Ld but district ytds sum to %Ld" w_ytd !d_ytd;
  let c_paid = ref 0L in
  let c_balance = ref 0L in
  for d = 1 to t.districts do
    for c = 1 to t.customers do
      let r = customer_rec t ~d ~c in
      c_paid := Int64.add !c_paid (peek (r + 8));
      c_balance := Int64.add !c_balance (peek r)
    done
  done;
  if !c_paid <> w_ytd then fail "customers paid %Ld but warehouse ytd %Ld" !c_paid w_ytd;
  if Int64.neg !c_paid <> !c_balance then
    fail "customer balances %Ld do not mirror payments %Ld" !c_balance !c_paid
