module Mem = Dudetm_nvm.Mem
module Nvm = Dudetm_nvm.Nvm
module Sched = Dudetm_sim.Sched
module Stats = Dudetm_sim.Stats

type mode = Software | Hardware

type config = {
  mode : mode;
  page_bits : int;
  frames : int;
  sw_access_cost : int;
  sw_pin_cost : int;
  sw_fault_cost : int;
  hw_fault_cost : int;
  hw_shootdown_cost : int;
  copy_cycles_per_byte : float;
}

let default_config mode ~frames =
  {
    mode;
    page_bits = 12;
    frames;
    sw_access_cost = 8;
    sw_pin_cost = 20;
    sw_fault_cost = 600;
    hw_fault_cost = 2500;
    hw_shootdown_cost = 9000;
    copy_cycles_per_byte = 0.06;
  }

type t = {
  cfg : config;
  nvm : Nvm.t;
  applied_id : unit -> int;
  applied_on : Sched.cond list;  (* [wake_applied]: signalled when [applied_id] advances *)
  dram : Mem.t;  (* frames * page_size bytes *)
  pt : Page_table.t;
  refcount : int array;  (* per frame *)
  pinned : int -> bool;  (* frame -> its refcount is positive; built once *)
  touching_id : int array;  (* per logical page *)
  stats : Stats.t;
  page_size : int;
  npages : int;
}

let create cfg ~nvm ~applied_id ~wake_applied =
  let page_size = 1 lsl cfg.page_bits in
  let size = Nvm.size nvm in
  if size mod page_size <> 0 then invalid_arg "Shadow.create: NVM size not page-aligned";
  let npages = size / page_size in
  if cfg.frames < 1 then invalid_arg "Shadow.create: no frames";
  let refcount = Array.make cfg.frames 0 in
  {
    cfg;
    nvm;
    applied_id;
    applied_on = [ wake_applied ];
    dram = Mem.create (cfg.frames * page_size);
    pt = Page_table.create ~pages:npages ~frames:cfg.frames;
    refcount;
    pinned = (fun f -> refcount.(f) > 0);
    touching_id = Array.make npages 0;
    stats = Stats.create ();
    page_size;
    npages;
  }

let config t = t.cfg

let page_of t addr = addr lsr t.cfg.page_bits

let copy_cost t = int_of_float (ceil (float_of_int t.page_size *. t.cfg.copy_cycles_per_byte))

(* Pick and discard a victim frame.  The page is never written back: its
   committed updates live in redo logs and will reach NVM via Reproduce.
   May yield (hardware mode charges a TLB shootdown), so callers must
   re-validate all state afterwards. *)
let evict_one t =
  match Page_table.clock_victim t.pt ~skip:t.pinned with
  | Some frame ->
    Page_table.unmap_frame t.pt frame;
    Stats.incr t.stats "evictions";
    if t.cfg.mode = Hardware then begin
      Stats.incr t.stats "shootdowns";
      Sched.advance t.cfg.hw_shootdown_cost
    end;
    true
  | None -> false

(* Swap a page in.  Every step up to the final free-frame claim may yield
   (cost charges, the touching-ID gate, shootdowns), so the loop
   re-validates residency, frame availability and the touching gate until
   the final check -> copy -> map sequence runs without a yield point.  A
   top-level loop with explicit arguments, so a fault allocates no closure
   of its own. *)
let rec acquire t page =
  let frame = Page_table.frame_of t.pt page in
  if frame >= 0 then frame (* a peer faulted it in while we yielded *)
  else if t.touching_id.(page) > t.applied_id () then begin
    (* Reproduce has not yet applied the last transaction that wrote
       this page: loading it from NVM now would resurrect stale data. *)
    Stats.incr t.stats "swapin_waits";
    Sched.wait_on t.applied_on ~label:"shadow: swap-in behind reproduce" (fun () ->
        t.touching_id.(page) <= t.applied_id ());
    acquire t page
  end
  else begin
    let frame = Page_table.free_frame t.pt in
    if frame >= 0 then begin
      (* No yield from here to [map]: the claim is atomic. *)
      Nvm.load_into_mem t.nvm (page * t.page_size) t.dram ~dst_off:(frame * t.page_size)
        ~len:t.page_size;
      Page_table.map t.pt ~page ~frame;
      frame
    end
    else begin
      if not (evict_one t) then
        (* Every mapped frame is pinned: wait for an unpin. *)
        Sched.wait_until ~label:"shadow: all frames pinned" (fun () ->
            Page_table.free_frame t.pt >= 0 || Page_table.has_victim t.pt ~skip:t.pinned);
      acquire t page
    end
  end

let fault_in t page =
  Stats.incr t.stats "faults";
  let trap =
    match t.cfg.mode with Software -> t.cfg.sw_fault_cost | Hardware -> t.cfg.hw_fault_cost
  in
  Sched.advance (trap + copy_cost t);
  acquire t page

let frame_for t page =
  let f = Page_table.frame_of t.pt page in
  if f >= 0 then f else fault_in t page

let translate t addr =
  if t.cfg.mode = Software then Sched.advance t.cfg.sw_access_cost;
  let page = page_of t addr in
  let frame = frame_for t page in
  (frame * t.page_size) + (addr land (t.page_size - 1))

let load_u64 t addr = Mem.get_u64 t.dram (translate t addr)

let store_u64 t addr v = Mem.set_u64 t.dram (translate t addr) v

let pin t addr =
  if t.cfg.mode = Software then Sched.advance t.cfg.sw_pin_cost;
  let page = page_of t addr in
  let frame = frame_for t page in
  t.refcount.(frame) <- t.refcount.(frame) + 1

let unpin t addr =
  let frame = Page_table.frame_of t.pt (page_of t addr) in
  if frame < 0 then invalid_arg "Shadow.unpin: page not resident";
  if t.refcount.(frame) <= 0 then invalid_arg "Shadow.unpin: not pinned";
  t.refcount.(frame) <- t.refcount.(frame) - 1

let pinned_pages t = Array.fold_left (fun acc r -> if r > 0 then acc + 1 else acc) 0 t.refcount

let resident t = Page_table.resident t.pt

let set_touching t ~page ~tid =
  if tid > t.touching_id.(page) then t.touching_id.(page) <- tid

let touching t ~page = t.touching_id.(page)

let stats t = t.stats
