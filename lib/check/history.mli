(** The one durable-history oracle of the crash campaigns.

    DudeTM's durability claim is that recovery replays exactly a durable
    prefix of the committed history.  A campaign records that history —
    each transaction attempt with its write set, its position in every
    order stream it writes and its acknowledgement, and each snapshot read
    — and {!check} judges a recovered image against it, in the declarative
    style of Raad et al.'s PMDK specification: the image must be the serial
    replay of one downward-closed (vector) cut that keeps every
    acknowledgement, DUMBO's durable reads included.

    A {e stream} is one commit order: an engine's tid order, a shard, or a
    key or pair whose values count its commits.  A location [(s, a)] is
    printed [s@a], a transaction's fragment on stream [s] at position [p]
    (from 1) [s:p].  Values are stamped unique per location and every
    location starts at 0, so the cut can be read off the image and then
    checked by replay. *)

type loc = int * int

type ack = Never | Acked | At of int * int  (** acknowledged once watermark [w] reaches [v] *)

type t

val create : unit -> t

val attempt : t -> worker:int -> ?ack:ack -> pos:(int -> int) -> (loc * int64) list -> unit
(** [attempt h ~worker ~pos writes]: the worker's transaction body wrote
    [writes], at position [pos s] of each stream [s] it wrote; an attempt
    on several streams is one cross-stream transaction, all in a cut or
    all out.  It replaces the worker's previous unreturned attempt, which
    stays a candidate for the cut until {!commit} or {!abandon}: an attempt
    can be durable before it returns. *)

val commit : t -> worker:int -> ?ack:ack -> unit -> unit
(** The worker's attempt returned committed, [ack] replacing its own. *)

val abandon : t -> worker:int -> unit

val read : t -> epoch:int -> durable:bool -> (loc * int64) list -> unit
(** A completed snapshot read and the values it returned. *)

val observe : t -> int -> int -> unit
(** [observe h w v]: watermark [w] read [v].  Observed at every boundary
    and when the life ends, its largest value is the watermark at the cut,
    and it acknowledges every [At (w, v')] transaction with [v' <= v]. *)

val watermark : t -> int -> int
(** The largest value of a watermark observed this life ([min_int]: none). *)

val quiesce : t -> unit
(** A quiescent stop acknowledges every committed transaction. *)

type cut

val position : cut -> int -> int
(** The cut's last position on a stream (0: none). *)

val check : t -> read:(loc -> int64) -> cut * string option
(** The least cut the image shows — per stream, the latest fragment whose
    stamp a location holds — and its first violation: a value no committed
    transaction or unreturned attempt wrote; a cross-stream transaction
    partly in the cut; a written location that differs from the cut's
    replay; an acknowledged transaction outside it; a snapshot read that is
    not the replay of the cut its own values show or, in durable mode, not
    inside the recovered cut.  With unique stamps no other cut passes. *)

val truncate : t -> cut -> unit
(** Rebase for the next life: the history becomes the cut, committed and
    acknowledged (recovery made it durable), with nothing pending and no
    watermark observed. *)
