(* Growable buffers of integer samples (simulated cycles) with exact
   nearest-rank percentiles: a benchmark percentile is a sample, never the
   lower bound of a log2 bucket. *)

type t = { mutable buf : int array; mutable n : int; mutable sorted : bool }

let create () = { buf = Array.make 256 0; n = 0; sorted = true }

let clear t =
  t.n <- 0;
  t.sorted <- true

let add t v =
  if t.n = Array.length t.buf then begin
    let b = Array.make (2 * max 1 t.n) 0 in
    Array.blit t.buf 0 b 0 t.n;
    t.buf <- b
  end;
  t.buf.(t.n) <- v;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n

(* Every sample of [ts] in one buffer. *)
let concat ts =
  let t = create () in
  List.iter
    (fun s ->
      for i = 0 to s.n - 1 do
        add t s.buf.(i)
      done)
    ts;
  t

let total t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.buf.(i)
  done;
  !s

let mean t = if t.n = 0 then 0.0 else float_of_int (total t) /. float_of_int t.n

(* Sorts once per batch of additions: the buffer is trimmed to the samples
   and sorted in place. *)
let sort t =
  if not t.sorted then begin
    if Array.length t.buf <> t.n then t.buf <- Array.sub t.buf 0 t.n;
    Array.sort compare t.buf;
    t.sorted <- true
  end

(* The smallest sample with at least [p] percent of all samples at or
   below it; 0 when empty. *)
let percentile t p =
  if t.n = 0 then 0
  else begin
    sort t;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
    t.buf.(max 0 (min (t.n - 1) (rank - 1)))
  end

(* Median of a list of floats (host measurements repeated within a run). *)
let median_f = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
