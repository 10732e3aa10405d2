module Rng = Dudetm_sim.Rng
module Sched = Dudetm_sim.Sched
module Resource = Dudetm_sim.Resource
module Trace = Dudetm_trace.Trace

exception Media_error of int

type fault =
  | Bit_rot of { off : int; bit : int }
  | Stuck_line of { line : int }
  | Poison of { line : int }

(* The device keeps one full image, [image]: what CPU loads observe,
   stores still in the volatile cache hierarchy included.  A clean line's
   image bytes are the media's, so the persisted content differs from the
   image only on dirty lines, and for each of those the device keeps the
   line's persisted pre-image: the bytes the first store since the line's
   last flush overwrote.  Pre-images sit in [pre], an arena of line-sized
   slots that flushes hand back through the [free] stack; [slots] holds
   each dirty line's slot, 4 bytes a line.

   Dirty state is tracked per cache line (the granularity of eviction and
   crash survival), but each line also remembers how many payload bytes
   were actually stored into it since its last flush.  Persist-cost
   accounting uses those byte counts — the paper's emulation charges
   [total write size / bandwidth], not whole-line traffic.  The counts live
   in a flat table, one byte per line (0 = clean), so a store to an
   already-dirty line allocates nothing; that table is the one record of
   which lines are dirty, and [ndirty] counts its nonzero entries. *)
type t = {
  cfg : Pmem_config.t;
  label : string;  (* trace device identity; shards label theirs "shard<i>" *)
  image : Mem.t;
  dirty_bytes : Bytes.t;  (* per line: payload bytes stored since its flush *)
  slots : Bytes.t;  (* per dirty line: its pre-image slot, 4 bytes a line *)
  mutable ndirty : int;  (* lines with a nonzero count *)
  mutable pre : Mem.t;  (* pre-image slots, [line_size] bytes each *)
  mutable free : int array;  (* slots handed back, a stack of [nfree] *)
  mutable nfree : int;
  mutable nslots : int;  (* slots handed out at least once *)
  channel : Resource.t;
  charge_time : bool;
  mutable write_bytes : int;
  mutable persist_ops : int;
  (* Fired at every persist boundary: once when an ordering is issued and
     once after each dirty line reaches the media.  The systematic crash
     checker raises from here to cut power at an exact boundary. *)
  mutable persist_hook : (unit -> unit) option;
  (* Media-fault state.  [poisoned] lines raise {!Media_error} on any read
     that reaches the media (loads of non-dirty lines, persisted reads);
     [stuck] lines silently ignore flushes, keeping their last persisted
     content.  Both survive crashes: they are properties of the media. *)
  poisoned : (int, unit) Hashtbl.t;
  stuck : (int, unit) Hashtbl.t;
  mutable last_crash_survivors : int list;
}

let create ?(charge_time = true) ?(label = "nvm") cfg ~size =
  let ls = cfg.Pmem_config.line_size in
  if size mod ls <> 0 then invalid_arg "Nvm.create: size must be a multiple of the line size";
  if ls > 255 || ls mod 8 <> 0 then
    invalid_arg "Nvm.create: line size must be a multiple of 8 below 256";
  (* Room for the lines a workload typically dirties between two persists;
     the arena doubles past that. *)
  let slots0 = max 1 (min 256 (size / ls)) in
  {
    cfg;
    label;
    image = Mem.create size;
    dirty_bytes = Bytes.make (size / ls) '\000';
    slots = Bytes.create (size / ls * 4);
    ndirty = 0;
    pre = Mem.create (slots0 * ls);
    free = Array.make slots0 0;
    nfree = 0;
    nslots = 0;
    channel = Resource.create_gbps cfg.Pmem_config.bandwidth_gbps;
    charge_time;
    write_bytes = 0;
    persist_ops = 0;
    persist_hook = None;
    poisoned = Hashtbl.create 8;
    stuck = Hashtbl.create 8;
    last_crash_survivors = [];
  }

let set_persist_hook t hook = t.persist_hook <- hook

let fire_hook t = match t.persist_hook with Some f -> f () | None -> ()

let size t = Mem.size t.image

let line t addr = addr / t.cfg.Pmem_config.line_size

let line_size t = t.cfg.Pmem_config.line_size

let dirty_count t l = Bytes.get_uint8 t.dirty_bytes l

let is_dirty t l = dirty_count t l > 0

let slot_off t slot = slot * t.cfg.Pmem_config.line_size

let slot_of t l = Int32.to_int (Bytes.get_int32_le t.slots (4 * l))

(* Where the persisted copy of byte [off] of dirty line [l] sits in [pre]. *)
let pre_off t l off = slot_off t (slot_of t l) + off - (l * t.cfg.Pmem_config.line_size)

(* Take a slot (a freed one first) and copy line [l]'s image into it: called
   before the first store since the line's flush lands. *)
let save_pre_image t l =
  let ls = t.cfg.Pmem_config.line_size in
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      let s = t.nslots in
      if s = Array.length t.free then begin
        (* No slot is free here, so the new stack starts empty too. *)
        let pre = Mem.create (2 * s * ls) in
        Mem.blit ~src:t.pre ~src_off:0 ~dst:pre ~dst_off:0 ~len:(s * ls);
        t.pre <- pre;
        t.free <- Array.make (2 * s) 0
      end;
      t.nslots <- s + 1;
      s
    end
  in
  Mem.blit ~src:t.image ~src_off:(l * ls) ~dst:t.pre ~dst_off:(slot_off t slot) ~len:ls;
  slot

let free_slot t slot =
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* ------------------------------------------------------------------ *)
(* Media faults                                                        *)
(* ------------------------------------------------------------------ *)

let check_poison_media t addr len =
  if Hashtbl.length t.poisoned > 0 && len > 0 then begin
    let first = line t addr and last = line t (addr + len - 1) in
    for l = first to last do
      if Hashtbl.mem t.poisoned l then
        raise (Media_error (l * t.cfg.Pmem_config.line_size))
    done
  end

(* A load is served from the cache when the line is dirty; only clean lines
   re-read the media and can observe poison. *)
let check_poison_load t addr len =
  if Hashtbl.length t.poisoned > 0 && len > 0 then begin
    let first = line t addr and last = line t (addr + len - 1) in
    for l = first to last do
      if Hashtbl.mem t.poisoned l && not (is_dirty t l) then
        raise (Media_error (l * t.cfg.Pmem_config.line_size))
    done
  end

(* A dirty line's media content is its pre-image, which the cached copy
   shadows.  A clean line's cached copy mirrors the media, so the corruption
   is immediately visible to loads too. *)
let flip_persisted_bit t ~off ~bit =
  let l = line t off in
  let flip mem at = Mem.set_u8 mem at (Mem.get_u8 mem at lxor (1 lsl (bit land 7))) in
  if is_dirty t l then flip t.pre (pre_off t l off) else flip t.image off

let inject_fault t fault =
  match fault with
  | Bit_rot { off; bit } ->
    if off < 0 || off >= size t then invalid_arg "Nvm.inject_fault: offset out of range";
    flip_persisted_bit t ~off ~bit
  | Stuck_line { line = l } ->
    if l < 0 || l >= size t / line_size t then
      invalid_arg "Nvm.inject_fault: line out of range";
    Hashtbl.replace t.stuck l ()
  | Poison { line = l } ->
    if l < 0 || l >= size t / line_size t then
      invalid_arg "Nvm.inject_fault: line out of range";
    Hashtbl.replace t.poisoned l ()

let is_poisoned t ~line:l = Hashtbl.mem t.poisoned l

let is_stuck t ~line:l = Hashtbl.mem t.stuck l

let poisoned_lines t = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) t.poisoned [])

let stuck_lines t = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) t.stuck [])

(* ------------------------------------------------------------------ *)
(* Volatile-side access                                                *)
(* ------------------------------------------------------------------ *)

(* Runs before a store's [len > 0] bytes land at [off]: each clean line the
   store covers saves its image, the media's content, as its pre-image. *)
let mark_dirty t off len =
  if off < 0 || off + len > size t then invalid_arg "Nvm: store out of range";
  let ls = t.cfg.Pmem_config.line_size in
  let first = line t off and last = line t (off + len - 1) in
  for l = first to last do
    let lo = max off (l * ls) and hi = min (off + len) ((l + 1) * ls) in
    let c = dirty_count t l in
    if c = 0 then begin
      Bytes.set_int32_le t.slots (4 * l) (Int32.of_int (save_pre_image t l));
      t.ndirty <- t.ndirty + 1
    end;
    Bytes.set_uint8 t.dirty_bytes l (min ls (c + hi - lo))
  done

let load_u64 t addr =
  check_poison_load t addr 8;
  Mem.get_u64 t.image addr

let store_u64 t addr v =
  Mem.check_aligned addr;
  mark_dirty t addr 8;
  Mem.set_u64 t.image addr v

let load_sub t off b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Nvm.load_sub";
  check_poison_load t off len;
  Mem.get_sub t.image off b ~pos ~len

let load_into t off dst = load_sub t off dst ~pos:0 ~len:(Bytes.length dst)

let load_bytes t off len =
  let b = Bytes.create len in
  load_into t off b;
  b

let load_into_mem t off dst ~dst_off ~len =
  check_poison_load t off len;
  Mem.blit ~src:t.image ~src_off:off ~dst ~dst_off ~len

let store_sub t off b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Nvm.store_sub";
  if len > 0 then mark_dirty t off len;
  Mem.set_sub t.image off b ~pos ~len

let store_bytes t off b = store_sub t off b ~pos:0 ~len:(Bytes.length b)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

(* The line's image becomes its media content, so its pre-image slot goes
   back to the arena.  The fault tables are read only when nonempty. *)
let flush_line t l =
  let ls = t.cfg.Pmem_config.line_size in
  let payload = dirty_count t l in
  let slot = slot_of t l in
  if Hashtbl.length t.stuck > 0 && Hashtbl.mem t.stuck l then
    (* Stuck-at line: the write reaches the device but never sticks; a
       subsequent media read returns the stale content, so reload the cache
       from the (unchanged) pre-image to make that observable. *)
    Mem.blit ~src:t.pre ~src_off:(slot_off t slot) ~dst:t.image ~dst_off:(l * ls) ~len:ls
  else if Hashtbl.length t.poisoned > 0 then
    (* Rewriting a whole line clears its poison (the model for repairing an
       uncorrectable location by writing fresh data over it). *)
    Hashtbl.remove t.poisoned l;
  free_slot t slot;
  t.ndirty <- t.ndirty - 1;
  Bytes.set_uint8 t.dirty_bytes l 0;
  t.write_bytes <- t.write_bytes + payload;
  payload

let charge t bytes =
  t.persist_ops <- t.persist_ops + 1;
  if t.charge_time then begin
    let cost =
      Resource.transfer t.channel ~now:(Sched.now ()) ~bytes
        ~latency:t.cfg.Pmem_config.persist_latency
    in
    (* Every cycle the NVM channel ever costs anyone flows through here, so
       this one call gives the per-thread "who pays for persistence" split. *)
    Trace.nvm_transfer ~dev:t.label ~bytes ~cycles:cost;
    Sched.advance cost
  end
  else Trace.nvm_transfer ~dev:t.label ~bytes ~cycles:0

let flush_range t ~off ~len =
  if len < 0 || off < 0 || off + len > size t then invalid_arg "Nvm.persist: bad range";
  let bytes = ref 0 in
  if len > 0 then begin
    let first = line t off and last = line t (off + len - 1) in
    for l = first to last do
      if is_dirty t l then begin
        bytes := !bytes + flush_line t l;
        fire_hook t
      end
    done
  end;
  !bytes

let persist t ~off ~len =
  fire_hook t;
  charge t (flush_range t ~off ~len)

let persist_ranges t ranges =
  fire_hook t;
  let bytes = List.fold_left (fun acc (off, len) -> acc + flush_range t ~off ~len) 0 ranges in
  charge t bytes

let persist_words t addrs n =
  fire_hook t;
  let bytes = ref 0 in
  for i = n - 1 downto 0 do
    bytes := !bytes + flush_range t ~off:addrs.(i) ~len:8
  done;
  charge t !bytes

let dirty_lines t = t.ndirty

(* Evicted lines reach NVM without any ordering guarantee; the subset
   choice is the adversarial part.  One pass in ascending line order, up to
   the last dirty line, draws each dirty line's survival, then flushes it
   or gives it its pre-image back. *)
let crash ?(evict_fraction = 0.0) ?rng t =
  let draw = match rng with Some rng when evict_fraction > 0.0 -> Some rng | _ -> None in
  let ls = t.cfg.Pmem_config.line_size in
  let survivors = ref [] and left = ref t.ndirty and l = ref 0 in
  while !left > 0 do
    if is_dirty t !l then begin
      decr left;
      match draw with
      | Some rng when Rng.float rng < evict_fraction ->
        ignore (flush_line t !l);
        survivors := !l :: !survivors
      | _ ->
        Mem.blit ~src:t.pre ~src_off:(slot_off t (slot_of t !l)) ~dst:t.image ~dst_off:(!l * ls)
          ~len:ls;
        Bytes.set_uint8 t.dirty_bytes !l 0
    end;
    incr l
  done;
  t.last_crash_survivors <- List.rev !survivors;
  t.ndirty <- 0;
  t.nfree <- 0;
  t.nslots <- 0;
  Resource.reset t.channel

let last_crash_survivors t = t.last_crash_survivors

let persisted_u64 t addr =
  check_poison_media t addr 8;
  let l = line t addr in
  (* A negative [addr] falls in line 0: [Mem] rejects it. *)
  if addr >= 0 && is_dirty t l then Mem.get_u64 t.pre (pre_off t l addr)
  else Mem.get_u64 t.image addr

(* The image, with each dirty line's share of the range read from its
   pre-image instead. *)
let persisted_into t off dst =
  let len = Bytes.length dst in
  check_poison_media t off len;
  Mem.get_into t.image off dst;
  if len > 0 && t.ndirty > 0 then begin
    let ls = t.cfg.Pmem_config.line_size in
    for l = line t off to line t (off + len - 1) do
      if is_dirty t l then begin
        let lo = max off (l * ls) and hi = min (off + len) ((l + 1) * ls) in
        Mem.get_sub t.pre (pre_off t l lo) dst ~pos:(lo - off) ~len:(hi - lo)
      end
    done
  end

let persisted_bytes t off len =
  let b = Bytes.create len in
  persisted_into t off b;
  b

let persisted_write_bytes t = t.write_bytes

let persist_ops t = t.persist_ops

let reset_counters t =
  t.write_bytes <- 0;
  t.persist_ops <- 0
