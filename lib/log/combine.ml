type stats = {
  writes_in : int;
  writes_out : int;
  entries_in : int;
  entries_out : int;
}

(* Incremental builder: one open batch.  The hash table holds the
   last-written value per address; [order] remembers first-occurrence
   address order so sealing is deterministic.  Sealing drains the builder,
   so one builder is reused across consecutive batches — each seal
   combines exactly the entries fed since the previous seal, which is what makes an arbitrary batch partition of a log prefix
   compose to the same replayed state as one monolithic combine. *)
type builder = {
  last_value : (int, int64) Hashtbl.t;
  mutable order : int list;  (* reversed first-occurrence order *)
  mutable allocs : Log_entry.t list;  (* reversed *)
  mutable ends : Log_entry.t list;  (* reversed *)
  mutable writes_in : int;
  mutable entries_in : int;
  mutable bytes_out : int;  (* encoded size of the combined batch *)
}

let builder () =
  {
    last_value = Hashtbl.create 256;
    order = [];
    allocs = [];
    ends = [];
    writes_in = 0;
    entries_in = 0;
    bytes_out = 0;
  }

let pending b = b.entries_in

let feed b e =
  b.entries_in <- b.entries_in + 1;
  match e with
  | Log_entry.Write { addr; value } ->
    b.writes_in <- b.writes_in + 1;
    if not (Hashtbl.mem b.last_value addr) then begin
      b.order <- addr :: b.order;
      b.bytes_out <- b.bytes_out + Log_entry.encoded_size e
    end;
    Hashtbl.replace b.last_value addr value
  | Log_entry.Alloc _ | Log_entry.Free _ | Log_entry.Cross _ ->
    b.allocs <- e :: b.allocs;
    b.bytes_out <- b.bytes_out + Log_entry.encoded_size e
  | Log_entry.Tx_end _ ->
    b.ends <- e :: b.ends;
    b.bytes_out <- b.bytes_out + Log_entry.encoded_size e

let feed_list b es = List.iter (feed b) es

(* Encode, in feed order, the final writes of a reversed address list
   and the entries of a reversed entry list. *)
let rec encode_writes b buf pos = function
  | [] -> pos
  | addr :: earlier ->
    let pos = encode_writes b buf pos earlier in
    Log_entry.encode_write buf pos ~addr ~value:(Hashtbl.find b.last_value addr)

let rec encode_rev buf pos = function
  | [] -> pos
  | e :: earlier -> Log_entry.encode_into buf (encode_rev buf pos earlier) e

(* The one sealing routine: encode the combined batch — each address with
   its final value, allocation events and fragment seals, then end marks —
   straight into a plain payload, then reset the builder. *)
let seal_payload b =
  let buf = Log_entry.plain_payload b.bytes_out in
  let pos = encode_rev buf (encode_rev buf (encode_writes b buf 1 b.order) b.allocs) b.ends in
  assert (pos = Bytes.length buf);
  let writes_out = Hashtbl.length b.last_value in
  let stats =
    {
      writes_in = b.writes_in;
      writes_out;
      entries_in = b.entries_in;
      entries_out = writes_out + List.length b.allocs + List.length b.ends;
    }
  in
  Hashtbl.reset b.last_value;
  b.order <- [];
  b.allocs <- [];
  b.ends <- [];
  b.writes_in <- 0;
  b.entries_in <- 0;
  b.bytes_out <- 0;
  (buf, stats)

let seal b =
  let payload, stats = seal_payload b in
  (Log_entry.decode_payload payload, stats)
