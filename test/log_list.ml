(* The list-form log API that no engine runs: tests build, combine and
   read records as entry lists through these, beside [Test_replay]'s list
   reference.  Each is a thin wrapper over the byte-level API lib keeps. *)

module Log_entry = Dudetm_log.Log_entry
module Combine = Dudetm_log.Combine

(* Entries back to back: a plain payload without its flag byte. *)
let encode_list entries =
  let plain = Log_entry.encode_plain entries in
  Bytes.sub plain 1 (Bytes.length plain - 1)

(* Inverse of [encode_list]; raises [Invalid_argument] on malformed input. *)
let decode_list body = Log_entry.decode_payload (Bytes.cat (Bytes.make 1 'P') body)

let tids entries =
  List.filter_map (function Log_entry.Tx_end { tid } -> Some tid | _ -> None) entries

(* One group through a fresh builder: the combined entries and the stats. *)
let combine group =
  let b = Combine.builder () in
  Combine.feed_list b group;
  Combine.seal b
