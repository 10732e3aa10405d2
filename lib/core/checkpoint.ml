module Twin = Dudetm_log.Sealed.Twin

type state = {
  reproduced_upto : int;
  cross_frontier : int;
  free_extents : (int * int) list;
}

type t = { twin : Twin.t; max_extents : int }

(* The meta block is a {!Twin} of two [size / 2] slots.  Record words:
   reproduced_upto, cross_frontier, then (off, len) per free extent, so a
   slot record is 40 + 16n bytes for n extents. *)
let max_extents_of ~size = (Twin.max_words ~slot_size:(size / 2) - 2) / 2

let words_of ~max_extents st =
  if List.length st.free_extents > max_extents then
    invalid_arg "Checkpoint: free list exceeds slot capacity";
  let w = Array.make (2 + (2 * List.length st.free_extents)) 0L in
  w.(0) <- Int64.of_int st.reproduced_upto;
  w.(1) <- Int64.of_int st.cross_frontier;
  List.iteri
    (fun i (off, len) ->
      w.(2 + (2 * i)) <- Int64.of_int off;
      w.(3 + (2 * i)) <- Int64.of_int len)
    st.free_extents;
  w

let state_of w =
  let int i = Int64.to_int w.(i) in
  let n = (Array.length w - 2) / 2 in
  {
    reproduced_upto = int 0;
    cross_frontier = int 1;
    free_extents = List.init n (fun i -> (int (2 + (2 * i)), int (3 + (2 * i))));
  }

let check_size fn ~size =
  if max_extents_of ~size < 1 then invalid_arg ("Checkpoint." ^ fn ^ ": meta block too small")

let format nvm ~base ~size st =
  check_size "format" ~size;
  let max_extents = max_extents_of ~size in
  { twin = Twin.format nvm ~base ~slot_size:(size / 2) (words_of ~max_extents st); max_extents }

let attach nvm ~base ~size =
  check_size "attach" ~size;
  match Twin.attach nvm ~base ~slot_size:(size / 2) with
  | Some (twin, w) when Array.length w >= 2 ->
    ({ twin; max_extents = max_extents_of ~size }, state_of w)
  | _ -> invalid_arg "Checkpoint.attach: no valid checkpoint"

let rec set_extents twin i = function
  | [] -> ()
  | (off, len) :: rest ->
    Twin.set_word twin i off;
    Twin.set_word twin (i + 1) len;
    set_extents twin (i + 2) rest

(* The words go straight into the slot buffer: [words_of]'s record
   without its array. *)
let write t st =
  let n = List.length st.free_extents in
  if n > t.max_extents then invalid_arg "Checkpoint: free list exceeds slot capacity";
  Twin.set_word t.twin 0 st.reproduced_upto;
  Twin.set_word t.twin 1 st.cross_frontier;
  set_extents t.twin 2 st.free_extents;
  Twin.commit t.twin ~words:(2 + (2 * n))

let max_extents t = t.max_extents

let scrub ?repair nvm ~base ~size = Twin.scrub ?repair nvm ~base ~slot_size:(size / 2)
