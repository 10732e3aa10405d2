type loc = int * int

type ack = Never | Acked | At of int * int

type tx = {
  stream : int;
  pos : int;
  group : int;  (* one per attempt: the fragments of a cross-stream transaction share it *)
  writes : (int * int64) list;
  mutable ack : ack;
}

type read = { epoch : int; durable : bool; values : (loc * int64) list }

type t = {
  mutable committed : tx list;
  attempts : (int, tx list) Hashtbl.t;  (* per worker: its unreturned attempt *)
  mutable reads : read list;  (* latest first *)
  mutable groups : int;
  mutable seen : (int * int) list;  (* per watermark: the largest value observed this life *)
}

type cut = (int * int) list

let create () = { committed = []; attempts = Hashtbl.create 8; reads = []; groups = 0; seen = [] }

let position cut s = Option.value (List.assoc_opt s cut) ~default:0

let attempt h ~worker ?(ack = Never) ~pos writes =
  h.groups <- h.groups + 1;
  let fragment s =
    (* Of two writes to one address, the later one lands. *)
    let last acc ((s', a), v) = if s' <> s || List.mem_assoc a acc then acc else (a, v) :: acc in
    let writes = List.fold_left last [] (List.rev writes) in
    { stream = s; pos = pos s; group = h.groups; writes; ack }
  in
  let streams = List.sort_uniq compare (List.map (fun ((s, _), _) -> s) writes) in
  Hashtbl.replace h.attempts worker (List.map fragment streams)

let commit h ~worker ?ack () =
  Option.iter
    (fun frags ->
      Hashtbl.remove h.attempts worker;
      Option.iter (fun a -> List.iter (fun tx -> tx.ack <- a) frags) ack;
      h.committed <- frags @ h.committed)
    (Hashtbl.find_opt h.attempts worker)

let abandon h ~worker = Hashtbl.remove h.attempts worker

let read h ~epoch ~durable values = h.reads <- { epoch; durable; values } :: h.reads

let pending h =
  List.concat_map snd (List.sort compare (Hashtbl.fold (fun w a l -> (w, a) :: l) h.attempts []))

let watermark h w = Option.value (List.assoc_opt w h.seen) ~default:min_int

let observe h w v = if v > watermark h w then h.seen <- (w, v) :: List.remove_assoc w h.seen

let acked h tx = match tx.ack with Acked -> true | At (w, v) -> watermark h w >= v | Never -> false

let quiesce h = List.iter (fun tx -> tx.ack <- Acked) h.committed

(* Committed fragments win over unreturned attempts at the same position
   (a stale attempt of the counter family repeats a committed one); the
   result is in replay order. *)
let txs h =
  let taken = Hashtbl.create 64 in
  let first tx =
    let k = (tx.stream, tx.pos) in
    (not (Hashtbl.mem taken k)) && (Hashtbl.add taken k (); true)
  in
  List.filter first (h.committed @ pending h)
  |> List.stable_sort (fun a b -> compare (a.stream, a.pos) (b.stream, b.pos))

(* The value the cut leaves at a location. *)
let replay txs cut (s, a) =
  List.fold_left
    (fun v tx ->
      if tx.stream = s && tx.pos <= position cut s then
        Option.value (List.assoc_opt a tx.writes) ~default:v
      else v)
    0L txs

(* An observation — the recovered image or a snapshot read — shows a least
   cut: per stream, the latest fragment whose stamp one of its values is.
   [Error] names a value no fragment wrote; [torn] whether the observation
   is not that cut's replay. *)
let explain txs what values =
  let least cut ((s, a), v) =
    match List.find_opt (fun tx -> tx.stream = s && List.mem (a, v) tx.writes) txs with
    | Some tx when tx.pos > position cut s -> Ok ((s, tx.pos) :: List.remove_assoc s cut)
    | None when v <> 0L ->
      Error
        (Printf.sprintf "%s: %d@%d holds %Ld, which no committed or in-flight transaction wrote"
           what s a v)
    | _ -> Ok cut
  in
  let torn cut () =
    List.find_opt (fun (l, v) -> replay txs cut l <> v) values
    |> Option.map (fun (((s, a) as l), v) ->
           Printf.sprintf "%s: %d@%d holds %Ld, but its cut through %d:%d leaves %Ld" what s a v s
             (position cut s) (replay txs cut l))
  in
  List.fold_left (fun acc o -> Result.bind acc (fun cut -> least cut o)) (Ok []) values
  |> Result.map (fun cut -> (cut, torn cut))

let check_read txs cut r =
  let what =
    Printf.sprintf "snapshot read at epoch %d (%s mode)" r.epoch
      (if r.durable then "durable" else "volatile")
  in
  match explain txs what r.values with
  | Error m -> Some m
  | Ok (seen, torn) -> (
    match torn () with
    | None when r.durable ->
      List.find_opt (fun (s, p) -> p > position cut s) seen
      |> Option.map (fun (s, p) ->
             Printf.sprintf "%s lost: it saw %d:%d, the recovered cut ends at %d:%d" what s p s
               (position cut s))
    | t -> t)

let check h ~read =
  let txs = txs h in
  let locs =
    List.sort_uniq compare
      (List.concat_map (fun tx -> List.map (fun (a, _) -> (tx.stream, a)) tx.writes) txs)
  in
  match explain txs "recovered image" (List.map (fun l -> (l, read l)) locs) with
  | Error m -> ([], Some m)
  | Ok (cut, torn) ->
    let inside tx = tx.pos <= position cut tx.stream in
    let partial () =
      List.find_map
        (fun tx ->
          if not (inside tx) then None
          else
            List.find_opt (fun o -> o.group = tx.group && not (inside o)) txs
            |> Option.map (fun o ->
                   Printf.sprintf "partial cross-stream transaction: %d:%d recovered, %d:%d lost"
                     tx.stream tx.pos o.stream o.pos))
        txs
    in
    let lost () =
      List.find_opt (fun tx -> acked h tx && not (inside tx)) txs
      |> Option.map (fun tx ->
             Printf.sprintf "acknowledged transaction %d:%d lost: the recovered cut ends at %d:%d"
               tx.stream tx.pos tx.stream (position cut tx.stream))
    in
    let reads () = List.find_map (check_read txs cut) (List.rev h.reads) in
    (cut, List.find_map (fun f -> f ()) [ partial; torn; lost; reads ])

let truncate h cut =
  h.committed <- List.filter (fun tx -> tx.pos <= position cut tx.stream) (txs h);
  quiesce h;
  Hashtbl.reset h.attempts;
  h.reads <- [];
  h.seen <- []
