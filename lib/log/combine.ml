type stats = {
  writes_in : int;
  writes_out : int;
  entries_in : int;
  entries_out : int;
}

(* Incremental builder: one open batch.  The hash table holds the
   last-written value per address; [order] remembers first-occurrence
   address order so sealing is deterministic.  Sealing drains the builder,
   so one builder is reused across consecutive batches — each seal is
   equivalent to [combine] over exactly the entries fed since the previous
   seal, which is what makes an arbitrary batch partition of a log prefix
   compose to the same replayed state as one monolithic combine. *)
type builder = {
  last_value : (int, int64) Hashtbl.t;
  mutable order : int list;  (* reversed first-occurrence order *)
  mutable allocs : Log_entry.t list;  (* reversed *)
  mutable ends : Log_entry.t list;  (* reversed *)
  mutable writes_in : int;
  mutable entries_in : int;
}

let builder () =
  {
    last_value = Hashtbl.create 256;
    order = [];
    allocs = [];
    ends = [];
    writes_in = 0;
    entries_in = 0;
  }

let pending b = b.entries_in

let feed b e =
  b.entries_in <- b.entries_in + 1;
  match e with
  | Log_entry.Write { addr; value } ->
    b.writes_in <- b.writes_in + 1;
    if not (Hashtbl.mem b.last_value addr) then b.order <- addr :: b.order;
    Hashtbl.replace b.last_value addr value
  | Log_entry.Alloc _ | Log_entry.Free _ | Log_entry.Cross _ ->
    b.allocs <- e :: b.allocs
  | Log_entry.Tx_end _ -> b.ends <- e :: b.ends

let feed_list b es = List.iter (feed b) es

let seal b =
  let writes =
    List.rev_map
      (fun addr -> Log_entry.Write { addr; value = Hashtbl.find b.last_value addr })
      b.order
  in
  let combined = writes @ List.rev b.allocs @ List.rev b.ends in
  let stats =
    {
      writes_in = b.writes_in;
      writes_out = List.length writes;
      entries_in = b.entries_in;
      entries_out = List.length combined;
    }
  in
  Hashtbl.reset b.last_value;
  b.order <- [];
  b.allocs <- [];
  b.ends <- [];
  b.writes_in <- 0;
  b.entries_in <- 0;
  (combined, stats)

let combine group =
  let b = builder () in
  feed_list b group;
  seal b
