(** Replication wire frames ([lib/replica]).

    The unit of replication is the PR 6 group-commit batch: the exact
    payload bytes the primary's Persist daemon sealed into one ring-0
    record, carried verbatim inside a [Batch] frame keyed by the record's
    ring sequence number.  Every frame is CRC-32 sealed end to end, so a
    link-corrupted frame is {e detected and dropped} by {!check} (the
    retransmit timer recovers it) rather than ever reaching a replica's
    ring.

    A received frame is read in place: {!check} validates its CRC, kind
    and length, then the field readers take each field straight from the
    bytes, and a batch's payload stays where it is, bytes
    [\[payload_pos, payload_pos + payload_len)] of the frame.  No reader
    allocates.  The variant {!t} is the sender's description of a frame;
    {!encode} writes it through the same per-kind writers the replication
    hot path calls.

    Frames also piggyback the cluster's quorum-acknowledged watermark
    ([acked]): a follower's Reproduce daemon replays only transactions at
    or below the highest watermark it has seen, which keeps its checkpoint
    floor below any legal promotion-time truncation. *)

type t =
  | Batch of {
      seq : int;  (** primary ring-0 record sequence: dedup/retransmit key *)
      lo : int;  (** first transaction ID sealed in the record *)
      hi : int;  (** last transaction ID sealed in the record *)
      acked : int;  (** cluster quorum-acked watermark at send time *)
      payload : bytes;  (** the sealed record payload, byte-identical *)
    }
  | Ack of {
      seq : int;  (** cumulative: every record with sequence ≤ [seq] is
                      sealed on the sender's device *)
      durable : int;  (** the replica's local durable transaction ID *)
    }
  | Watermark of { acked : int }
      (** watermark-only broadcast: lets followers open their replay gate
          when no data frame is pending (e.g. the tail of a run) *)

val encode : t -> bytes
(** Serialize with a leading CRC-32 over everything that follows:
    {!encode_batch}, {!encode_ack} or {!encode_watermark} of its fields. *)

val encode_batch :
  seq:int -> lo:int -> hi:int -> acked:int -> bytes -> pos:int -> len:int -> bytes
(** A [Batch] frame whose payload is the [len] bytes of the buffer from
    [pos], copied once into the frame. *)

val encode_ack : seq:int -> durable:int -> bytes

val encode_watermark : acked:int -> bytes

type kind = Invalid | Batch_frame | Ack_frame | Watermark_frame

val check : bytes -> kind
(** The kind of a received frame, or [Invalid] for a short, malformed or
    CRC-mismatching buffer — corruption is detected, never delivered.  The
    field readers below are meaningful only on a frame [check] accepted,
    and only for the fields of its kind. *)

val seq : bytes -> int
(** A [Batch]'s or an [Ack]'s [seq]. *)

val lo : bytes -> int

val hi : bytes -> int

val acked : bytes -> int
(** A [Batch]'s or a [Watermark]'s [acked]. *)

val durable : bytes -> int

val payload_pos : int
(** Where a [Batch] frame's payload starts. *)

val payload_len : bytes -> int
(** A [Batch] frame's payload length. *)
