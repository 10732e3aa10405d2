type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 16

(* [find] with a handler, not [find_opt]: a hit allocates no option. *)
let cell t name =
  match Hashtbl.find t name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let add t name n =
  let r = cell t name in
  r := !r + n

let incr t name = add t name 1

let get t name = match Hashtbl.find t name with r -> !r | exception Not_found -> 0

let reset t = Hashtbl.reset t

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Latency = struct
  type r = { mutable samples : int array; mutable len : int; mutable sorted : bool }

  let create () = { samples = Array.make 1024 0; len = 0; sorted = false }

  let record r v =
    if r.len = Array.length r.samples then begin
      let bigger = Array.make (2 * r.len) 0 in
      Array.blit r.samples 0 bigger 0 r.len;
      r.samples <- bigger
    end;
    r.samples.(r.len) <- v;
    r.len <- r.len + 1;
    r.sorted <- false

  let ensure_sorted r =
    if not r.sorted then begin
      let live = Array.sub r.samples 0 r.len in
      Array.sort compare live;
      Array.blit live 0 r.samples 0 r.len;
      r.sorted <- true
    end

  let percentile r p =
    if r.len = 0 then 0
    else begin
      ensure_sorted r;
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let idx = int_of_float (ceil (p /. 100.0 *. float_of_int r.len)) - 1 in
      r.samples.(max 0 (min (r.len - 1) idx))
    end

  let mean r =
    if r.len = 0 then 0.0
    else begin
      let sum = ref 0 in
      for i = 0 to r.len - 1 do
        sum := !sum + r.samples.(i)
      done;
      float_of_int !sum /. float_of_int r.len
    end

  let log2_histogram r =
    let counts = Array.make 63 0 in
    for i = 0 to r.len - 1 do
      let b = Dudetm_trace.Trace.bucket_of r.samples.(i) in
      counts.(b) <- counts.(b) + 1
    done;
    let out = ref [] in
    for b = 62 downto 0 do
      if counts.(b) > 0 then out := (b, counts.(b)) :: !out
    done;
    !out

  let pp r =
    let p = percentile r in
    Printf.sprintf "p50 %d / p95 %d / p99 %d cyc" (p 50.0) (p 95.0) (p 99.0)

  let reset r =
    r.len <- 0;
    r.sorted <- false
end
