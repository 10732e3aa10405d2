let ghz = 3.4

let per_second = ghz *. 1e9

let of_ns t = int_of_float (ceil (t *. ghz))

let to_us c = float_of_int c /. (ghz *. 1e3)

let to_seconds c = float_of_int c /. per_second

let per_byte_of_gbps bw = per_second /. (bw *. 1e9)
