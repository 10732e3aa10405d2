module Nvm = Dudetm_nvm.Nvm
module Twin = Dudetm_log.Sealed.Twin

type report = {
  durable : int;
  replayed_txs : int;
  discarded_txs : int;
  discarded_records : int;
  corrupted_records : int;
  quarantined_lines : int;
}

type intent =
  | Idle
  | Replay of report
  | Probe of { line : int; original : int64 }

type t = { nvm : Nvm.t; twin : Twin.t; mutable current : intent }

(* A Twin of two 128-byte slots, so the slots never share a cache line.
   Record words: the intent's kind, then its fields — 32 + 8k bytes for k
   fields. *)
let slot_size = 128

let words_of = function
  | Idle -> [| 0L |]
  | Replay v ->
    Array.map Int64.of_int
      [|
        1;
        v.durable;
        v.replayed_txs;
        v.discarded_txs;
        v.discarded_records;
        v.corrupted_records;
        v.quarantined_lines;
      |]
  | Probe { line; original } -> [| 2L; Int64.of_int line; original |]

let intent_of w =
  let word i = if i < Array.length w then w.(i) else 0L in
  let int i = Int64.to_int (word i) in
  match int 0 with
  | 0 -> Some Idle
  | 1 ->
    Some
      (Replay
         {
           durable = int 1;
           replayed_txs = int 2;
           discarded_txs = int 3;
           discarded_records = int 4;
           corrupted_records = int 5;
           quarantined_lines = int 6;
         })
  | 2 -> Some (Probe { line = int 1; original = word 2 })
  | _ -> None

let format nvm ~base =
  { nvm; twin = Twin.format nvm ~base ~slot_size (words_of Idle); current = Idle }

let attach nvm ~base =
  match Twin.attach nvm ~base ~slot_size with
  | Some (twin, w) -> (
    match intent_of w with Some current -> { nvm; twin; current } | None -> format nvm ~base)
  | None ->
    (* Both slots torn or poisoned: no intent can have been sealed, so the
       only safe reading is "no recovery in progress".  Self-heal. *)
    format nvm ~base

let read t = t.current

let write t intent =
  Twin.write t.twin (words_of intent);
  t.current <- intent

let undo_probe t =
  match t.current with
  | Probe { line; original } ->
    let off = line * Nvm.line_size t.nvm in
    Nvm.store_u64 t.nvm off original;
    Nvm.persist t.nvm ~off ~len:8;
    write t Idle
  | Idle | Replay _ -> ()
