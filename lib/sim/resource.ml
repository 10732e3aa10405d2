type t = {
  cpb : float;
  mutable free_at : int;
  mutable total_bytes : int;
}

let create ~cycles_per_byte = { cpb = cycles_per_byte; free_at = 0; total_bytes = 0 }

let create_gbps bw = create ~cycles_per_byte:(Cycles.per_byte_of_gbps bw)

let transfer t ~now ~bytes ~latency =
  let bytes = max 0 bytes in
  let bw_cycles =
    if bytes = 0 then 0 else max 1 (int_of_float (ceil (float_of_int bytes *. t.cpb)))
  in
  let start = max now t.free_at in
  t.free_at <- start + bw_cycles;
  t.total_bytes <- t.total_bytes + bytes;
  let finish = start + max latency bw_cycles in
  max 0 (finish - now)

let reset t =
  t.free_at <- 0;
  t.total_bytes <- 0

let total_bytes t = t.total_bytes
