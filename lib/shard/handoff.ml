(* The migration coordinator's persistent state: two Sealed.Twin records
   in device 0's handoff-journal region (Config.hjournal_base), each a pair
   of 128-byte slots.  A seal goes to the older slot under the next
   sequence number, so a power cut mid-write leaves the previous record in
   force.  Word 0 of each record is its kind.

   - The *descriptor record* (base + 256) holds the authoritative
     partition descriptor — the handoff epoch that sealed it, then the
     Partition.seal words.  Attach validates its CRC and shard count and
     raises Partition.Invalid_partition rather than ever routing on a
     stale or corrupt mapping.
   - The *handoff record* (base + 0) holds the in-progress migration's
     phase as its kind, then {src; dst; range; epoch}.  The phase tells a
     recovering instance whether to roll the migration back (Copy: the
     source is still the sole authority) or forward (Flip/Cleanup: reseal
     the flipped descriptor idempotently and finish recycling the
     range). *)

module Twin = Dudetm_log.Sealed.Twin
module Partition = Dudetm_workloads.Partition

type phase = Copy | Flip | Cleanup

type plan = { src : int; dst : int; blo : int; bhi : int; epoch : int }

type t = {
  handoff : Twin.t;
  descriptor : Twin.t;
  mutable state : (plan * phase) option;
  mutable part : Partition.t;
  mutable epoch : int;
}

let slot_size = 128

let descriptor_off = 2 * slot_size

(* Handoff kinds are the phase; the descriptor record uses its own kind. *)
let k_idle = 0

let k_desc = 9

let kind_of_phase = function Copy -> 1 | Flip -> 2 | Cleanup -> 3

let phase_of_kind = function 1 -> Some Copy | 2 -> Some Flip | 3 -> Some Cleanup | _ -> None

let handoff_words state =
  Array.map Int64.of_int
    (match state with
    | None -> [| k_idle |]
    | Some (pl, ph) -> [| kind_of_phase ph; pl.src; pl.dst; pl.blo; pl.bhi; pl.epoch |])

(* [Some state] of a handoff record, [None] for one no seal writes. *)
let state_of w =
  match Array.map Int64.to_int w with
  | [| k |] when k = k_idle -> Some None
  | [| k; src; dst; blo; bhi; epoch |] ->
    Option.map (fun ph -> Some ({ src; dst; blo; bhi; epoch }, ph)) (phase_of_kind k)
  | _ -> None

let descriptor_words part ~epoch =
  Array.append [| Int64.of_int k_desc; Int64.of_int epoch |] (Partition.seal part)

let invalid msg = raise (Partition.Invalid_partition ("Partition: " ^ msg))

let seal_handoff t state =
  Twin.write t.handoff (handoff_words state);
  t.state <- state

let seal_descriptor t part ~epoch =
  Twin.write t.descriptor (descriptor_words part ~epoch);
  t.part <- part;
  t.epoch <- epoch

let format nvm ~base ~part ~epoch =
  (* Descriptor first: routing authority exists before any handoff state
     could reference it. *)
  let descriptor =
    Twin.format nvm ~base:(base + descriptor_off) ~slot_size (descriptor_words part ~epoch)
  in
  let handoff = Twin.format nvm ~base ~slot_size (handoff_words None) in
  { handoff; descriptor; state = None; part; epoch }

let attach nvm ~base ~nshards =
  match Twin.attach nvm ~base:(base + descriptor_off) ~slot_size with
  | None -> invalid "no valid partition descriptor record (both slots torn or corrupt)"
  | Some (descriptor, w) ->
    if Array.length w < 3 || w.(0) <> Int64.of_int k_desc then
      invalid "descriptor record has the wrong shape";
    let part = Partition.unseal ~expect_nshards:nshards (Array.sub w 2 (Array.length w - 2)) in
    let handoff, state =
      match Twin.attach nvm ~base ~slot_size with
      | None ->
        (* Both handoff slots torn: no handoff was ever sealed (or the seal
           itself was cut mid-write before either slot was valid, which can
           only happen at format time).  Self-heal to Idle. *)
        (Twin.format nvm ~base ~slot_size (handoff_words None), None)
      | Some (handoff, w) -> (
        match state_of w with
        | Some state -> (handoff, state)
        | None -> invalid "handoff record has an unknown phase")
    in
    { handoff; descriptor; state; part; epoch = Int64.to_int w.(1) }

let state t = t.state

let partition t = t.part

let epoch t = t.epoch
