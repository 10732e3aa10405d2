(** Simulated persistent-memory device.

    A device has two views of its bytes: what CPU loads observe (including
    stores still sitting in the volatile cache hierarchy), and the
    persisted content, what survives a crash.  They differ only on dirty
    cache lines, so the device keeps one full image, the loads' view, and
    for each dirty line its persisted pre-image: the line's bytes before
    the first store since its last flush.  A {!store_u64} saves the
    pre-image of every clean line it covers, then updates the image and
    marks the lines dirty.  Data becomes persisted exclusively via
    {!persist}, which models [CLWB]+[SFENCE] over a byte range (a flushed
    line's pre-image is dropped) and charges the paper's
    [max(latency, bytes/bandwidth)] cost against a serialized bandwidth
    channel.  So a device costs its size plus one line per dirty line.

    {!crash} drops the volatile side: each dirty line gets its pre-image
    back, at a cost in dirty lines, not in device size.  To model the
    CPU's {e uncontrolled} cache evictions — the hazard DudeTM's design
    sidesteps by never storing dirty data to NVM addresses directly — a
    crash can also leak a random subset of dirty lines into the persisted
    content.

    Beyond clean power cuts, the device also models {e media faults}
    ({!inject_fault}): silent bit rot in the persisted content, stuck-at
    lines that ignore writes, and poisoned (uncorrectable) lines whose
    reads raise {!Media_error}.  Media faults survive crashes; they are
    properties of the device, not of the cache. *)

type t

exception Media_error of int
(** Raised when a read reaches a poisoned (uncorrectable) region of the
    media; the payload is the byte address of the poisoned line's base.
    Models the machine-check a real platform raises on an uncorrectable
    NVM read. *)

(** A media fault applied to the {e persisted} content. *)
type fault =
  | Bit_rot of { off : int; bit : int }
      (** Silently flip bit [bit land 7] of persisted byte [off]. *)
  | Stuck_line of { line : int }
      (** The line keeps its current persisted content forever: subsequent
          flushes are silently dropped (and the cached copy reverts on
          flush, as a real read-after-writeback would observe). *)
  | Poison of { line : int }
      (** Reads of the line raise {!Media_error} until it is repaired by
          rewriting: flushing fresh data over a poisoned line clears the
          poison. *)

val create : ?charge_time:bool -> ?label:string -> Pmem_config.t -> size:int -> t
(** [create cfg ~size] makes a device of [size] bytes, zero-filled and fully
    persistent.  [charge_time] (default true) controls whether persists
    advance the simulated clock.  [label] (default ["nvm"]) names the
    device in trace per-device accounting; the sharding layer labels each
    region's device ["shard<i>"].  Raises [Invalid_argument] unless [size]
    is a multiple of the line size, itself a multiple of 8 below 256. *)

val size : t -> int

val line_size : t -> int

(** {1 Media faults} *)

val inject_fault : t -> fault -> unit
(** Apply one fault to the persisted content.  [Bit_rot] is also
    reflected into the volatile image when the covering line is clean,
    since a clean cache line mirrors the media. *)

val is_poisoned : t -> line:int -> bool

val is_stuck : t -> line:int -> bool

val poisoned_lines : t -> int list
(** Currently poisoned lines, ascending (ground truth, for tests). *)

val stuck_lines : t -> int list

(** {1 Volatile-side access (CPU loads/stores)} *)

val load_u64 : t -> int -> int64

val store_u64 : t -> int -> int64 -> unit

val load_bytes : t -> int -> int -> bytes
(** [load_bytes t off len] is a fresh buffer filled by {!load_into}. *)

val load_into : t -> int -> bytes -> unit
(** [load_into t off dst] is {!load_sub} into all of [dst].  Lets a caller
    reuse one buffer per read. *)

val load_sub : t -> int -> bytes -> pos:int -> len:int -> unit
(** [load_sub t off b ~pos ~len] fills [b]'s bytes [\[pos, pos + len)]
    with the image at [\[off, off + len)], as a CPU load would see it: a
    dirty line is served from the cache, so only a poisoned {e clean} line
    raises {!Media_error} (before [b] is touched).  The mirror of
    {!store_sub}. *)

val load_into_mem : t -> int -> Mem.t -> dst_off:int -> len:int -> unit
(** [load_into_mem t off dst ~dst_off ~len] copies the image at
    [\[off, off + len)] straight into [dst] at [dst_off], with
    {!load_into}'s poison contract: a poisoned {e clean} line raises
    {!Media_error} before [dst] is touched.  One blit, no intermediate
    buffer: the shadow's page fault and the flat view's initial heap copy
    use it. *)

val store_bytes : t -> int -> bytes -> unit

val store_sub : t -> int -> bytes -> pos:int -> len:int -> unit
(** [store_sub t off b ~pos ~len] stores [b]'s bytes [\[pos, pos + len)]
    at [off], as {!store_bytes} of that slice would, without copying the
    slice out first. *)

(** {1 Persistence} *)

val persist : t -> off:int -> len:int -> unit
(** Flush every dirty line intersecting [\[off, off+len)] to the media
    and drain the store queue.  Charges
    [max(persist_latency, dirty_bytes / bandwidth)] cycles, with the
    bandwidth component serialized across all users of the device. *)

val persist_ranges : t -> (int * int) list -> unit
(** [persist_ranges t ranges] flushes every dirty line covered by any of the
    [(off, len)] ranges under a {e single} persist ordering: one latency,
    one bandwidth booking for the total flushed bytes. *)

val persist_words : t -> int array -> int -> unit
(** [persist_words t addrs n] is [persist_ranges] over the 8-byte words at
    [addrs.(n - 1)], ..., [addrs.(0)], in that order (newest first), with
    no range list built.  Used by Reproduce and recovery to persist a
    whole batch of replayed writes at once. *)

val dirty_lines : t -> int
(** Number of lines currently dirty (not yet persisted).  Each line's
    dirty byte count and pre-image slot sit in flat per-line tables, so
    storing into an already-dirty line allocates nothing. *)

val set_persist_hook : t -> (unit -> unit) option -> unit
(** Install (or clear) a callback fired at every persist boundary: once when
    a persist ordering is issued ({!persist}, {!persist_ranges},
    {!persist_words}) and once after each dirty line reaches the media.
    The systematic crash checker ([lib/check]) counts these firings and
    raises from the hook to cut power at an exact persist/fence/line
    boundary — crashing between two firings leaves exactly the lines
    flushed so far durable, i.e. a torn persist.  The hook does not fire
    during {!crash} eviction or while no hook is installed. *)

(** {1 Crash and recovery} *)

val crash : ?evict_fraction:float -> ?rng:Dudetm_sim.Rng.t -> t -> unit
(** Simulate a power failure: each dirty line independently survives with
    probability [evict_fraction] (default 0 — none survive, the adversarial
    tests sweep this), then all volatile state is discarded: every other
    dirty line gets its pre-image back.  The survivors are drawn from [rng]
    one dirty line at a time in ascending line order, so they depend only
    on the set of dirty lines and the seed, never on the order the lines
    turned dirty.  Media faults (poison, stuck lines) persist across the
    crash. *)

val last_crash_survivors : t -> int list
(** The dirty lines that leaked into the persisted content during the most
    recent {!crash}, ascending.  Together with the eviction RNG seed this
    makes evicting crashes exactly replayable (the checker records both in
    its failure one-liners). *)

val persisted_u64 : t -> int -> int64
(** Read the persisted content directly (for tests and recovery checks): a
    dirty line's pre-image, a clean line's image.  Raises {!Media_error}
    on a poisoned line. *)

val persisted_bytes : t -> int -> int -> bytes
(** Read a persisted byte range (scrub and checksum audits): a fresh buffer
    filled by {!persisted_into}. *)

val persisted_into : t -> int -> bytes -> unit
(** [persisted_into t off dst] fills all of [dst] with the persisted content
    at [\[off, off + Bytes.length dst)].  Raises {!Media_error} (before
    [dst] is touched) if any covered line is poisoned, dirty or not: the
    read goes to the media. *)

(** {1 Accounting} *)

val persisted_write_bytes : t -> int
(** Total bytes ever flushed to the media (the paper's "NVM write
    traffic"). *)

val persist_ops : t -> int
(** Number of persist orderings issued. *)

val reset_counters : t -> unit
