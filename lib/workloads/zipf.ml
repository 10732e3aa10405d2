type t = {
  n : int;
  cdf : float array;  (* cdf.(i) = P(rank <= i) *)
}

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta < 0.0 then invalid_arg "Zipf.create: negative theta";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  { n; cdf }

let n t = t.n

let sample t rng =
  let u = Dudetm_sim.Rng.float rng in
  (* Smallest i with cdf.(i) >= u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.pmf: rank out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)
