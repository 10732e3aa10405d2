(* Lock word encoding: [version lsl 1] when free, [(uid lsl 1) lor 1] when
   owned.  Plain ints are safe: the simulator is single-OS-thread and every
   lock operation happens between scheduler yield points.

   The stripes live in chunks of [2^chunk_bits] words (one chunk of all
   the stripes in a smaller table), each allocated on the first write into
   it.  An absent chunk reads as all zeroes — version
   0, free — which is what a zero-filled flat array holds, so the stripe
   hash and every lock word a caller sees are those of the flat table.
   This is how real TinySTM's zero-filled static lock array behaves: the
   OS maps its pages on first touch, so untouched stripes cost nothing. *)

type t = { chunks : int array array; shift : int; low : int; mask : int }

type word = Version of int | Owned of int

let chunk_bits = 12

(* The shared stand-in for every absent chunk; never written. *)
let absent : int array = [||]

(* 2^20 stripes: large transactions (TPC-C reads ~300 words) need a sparse
   table or stripe-hash false conflicts dominate the abort rate; real
   TinySTM defaults to 2^22 locks. *)
let create ?(bits = 20) () =
  if bits < 1 || bits > 26 then invalid_arg "Lock_table.create: bits out of range";
  let shift = min chunk_bits bits in
  {
    chunks = Array.make (1 lsl (bits - shift)) absent;
    shift;
    low = (1 lsl shift) - 1;
    mask = (1 lsl bits) - 1;
  }

(* Words are 8-byte aligned; mix higher bits in so that adjacent structure
   fields do not all collide into consecutive stripes. *)
let stripe_of_addr t addr =
  let w = addr lsr 3 in
  (w lxor (w lsr 13)) land t.mask

(* A stripe outside [0, mask] indexes past the chunk slots ([lsr] sends a
   negative one far past them), so it raises as the flat array did. *)
let[@inline] raw t stripe =
  let c = t.chunks.(stripe lsr t.shift) in
  if c == absent then 0 else c.(stripe land t.low)

let set t stripe w =
  let i = stripe lsr t.shift in
  let c = t.chunks.(i) in
  let c =
    if c != absent then c
    else begin
      let c = Array.make (t.low + 1) 0 in
      t.chunks.(i) <- c;
      c
    end
  in
  c.(stripe land t.low) <- w

let read_word t stripe =
  let w = raw t stripe in
  if w land 1 = 0 then Version (w lsr 1) else Owned (w lsr 1)

let version t stripe =
  let w = raw t stripe in
  if w land 1 = 0 then w lsr 1 else -1

let owner t stripe =
  let w = raw t stripe in
  if w land 1 = 1 then w lsr 1 else -1

let acquire t ~stripe ~uid =
  let w = raw t stripe in
  if w land 1 = 1 then -1
  else begin
    set t stripe ((uid lsl 1) lor 1);
    w lsr 1
  end

let release_to t ~stripe ~version = set t stripe (version lsl 1)
