type t = {
  page_to_frame : int array;  (* -1 = not resident *)
  frame_to_page : int array;  (* -1 = free *)
  (* The free frames, a stack in its first [nfree] slots: the top, the
     frame [map] claims next, is the last.  Lowest frame on top at
     first. *)
  free : int array;
  mutable nfree : int;
  mutable hand : int;
  mutable resident : int;
}

let create ~pages ~frames =
  if pages <= 0 || frames <= 0 then invalid_arg "Page_table.create";
  {
    page_to_frame = Array.make pages (-1);
    frame_to_page = Array.make frames (-1);
    free = Array.init frames (fun i -> frames - 1 - i);
    nfree = frames;
    hand = 0;
    resident = 0;
  }

let frames t = Array.length t.frame_to_page

let frame_of t page = t.page_to_frame.(page)

let resident t = t.resident

let map t ~page ~frame =
  if t.page_to_frame.(page) >= 0 then invalid_arg "Page_table.map: page already resident";
  if t.frame_to_page.(frame) >= 0 then invalid_arg "Page_table.map: frame in use";
  if t.nfree = 0 || t.free.(t.nfree - 1) <> frame then
    invalid_arg "Page_table.map: frame is not free_frame";
  t.page_to_frame.(page) <- frame;
  t.frame_to_page.(frame) <- page;
  t.nfree <- t.nfree - 1;
  t.resident <- t.resident + 1

let unmap_frame t frame =
  let page = t.frame_to_page.(frame) in
  if page < 0 then invalid_arg "Page_table.unmap_frame: frame is free";
  t.page_to_frame.(page) <- -1;
  t.frame_to_page.(frame) <- -1;
  t.free.(t.nfree) <- frame;
  t.nfree <- t.nfree + 1;
  t.resident <- t.resident - 1

let free_frame t = if t.nfree = 0 then -1 else t.free.(t.nfree - 1)

(* Top-level scans with explicit arguments: a fault's victim search
   allocates nothing but its answer. *)
let rec victim_from t skip examined =
  if examined >= frames t then None
  else begin
    let f = t.hand in
    t.hand <- (t.hand + 1) mod frames t;
    if t.frame_to_page.(f) >= 0 && not (skip f) then Some f else victim_from t skip (examined + 1)
  end

let clock_victim t ~skip = victim_from t skip 0

let rec has_victim_from t skip f =
  f < frames t && ((t.frame_to_page.(f) >= 0 && not (skip f)) || has_victim_from t skip (f + 1))

let has_victim t ~skip = has_victim_from t skip 0
