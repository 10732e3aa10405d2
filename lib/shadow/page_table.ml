type t = {
  page_to_frame : int array;  (* -1 = not resident *)
  frame_to_page : int array;  (* -1 = free *)
  mutable free : int list;
  mutable hand : int;
  mutable resident : int;
}

let create ~pages ~frames =
  if pages <= 0 || frames <= 0 then invalid_arg "Page_table.create";
  {
    page_to_frame = Array.make pages (-1);
    frame_to_page = Array.make frames (-1);
    free = List.init frames (fun i -> i);
    hand = 0;
    resident = 0;
  }

let pages t = Array.length t.page_to_frame

let frames t = Array.length t.frame_to_page

let frame_of t page =
  let f = t.page_to_frame.(page) in
  if f < 0 then None else Some f

let page_of_frame t frame =
  let p = t.frame_to_page.(frame) in
  if p < 0 then None else Some p

let resident t = t.resident

let map t ~page ~frame =
  if t.page_to_frame.(page) >= 0 then invalid_arg "Page_table.map: page already resident";
  if t.frame_to_page.(frame) >= 0 then invalid_arg "Page_table.map: frame in use";
  match t.free with
  | f :: rest when f = frame ->
    t.page_to_frame.(page) <- frame;
    t.frame_to_page.(frame) <- page;
    t.free <- rest;
    t.resident <- t.resident + 1
  | _ -> invalid_arg "Page_table.map: frame is not free_frame"

let unmap_frame t frame =
  let page = t.frame_to_page.(frame) in
  if page < 0 then invalid_arg "Page_table.unmap_frame: frame is free";
  t.page_to_frame.(page) <- -1;
  t.frame_to_page.(frame) <- -1;
  t.free <- frame :: t.free;
  t.resident <- t.resident - 1

let free_frame t = match t.free with [] -> None | f :: _ -> Some f

let clock_victim t ~skip =
  let n = frames t in
  let rec go examined =
    if examined >= n then None
    else begin
      let f = t.hand in
      t.hand <- (t.hand + 1) mod n;
      if t.frame_to_page.(f) >= 0 && not (skip f) then Some f else go (examined + 1)
    end
  in
  go 0

let has_victim t ~skip =
  let rec go f = f < frames t && ((t.frame_to_page.(f) >= 0 && not (skip f)) || go (f + 1)) in
  go 0
