(** The tracing hook the reclamation hot paths call.

    Every instrumentation point in the allocator, the manual schemes and
    the OrcGC core routes through one of these functions.  A sink is
    either {!null} — a constant constructor, so each hook is a single
    branch that returns before touching the clock or allocating: tracing
    is compiled-in but zero-cost when disabled — or active, backed by
    per-thread {!Ring}s plus four {!Hist}s (retire→free latency, guard
    duration, scan cost, orphan-adoption latency).

    All per-event functions take the caller's registry [tid] and are
    single-writer per tid, like the rings and histograms beneath them. *)

type t

val null : t
(** The no-op sink; the default everywhere. *)

val now_ns : unit -> int
(** The default clock: wall-clock nanoseconds.  Rings additionally clamp
    timestamps to be non-decreasing per thread. *)

val make : ?capacity:int -> ?clock:(unit -> int) -> unit -> t
(** An active sink.  [capacity] sizes the per-thread rings (power of
    two, default {!Ring.default_capacity}); [clock] defaults to
    {!now_ns} and is injectable for deterministic tests. *)

val is_null : t -> bool
val enabled : t -> bool

val default : t ref
(** Ambient sink consulted by [Memdom.Alloc.create] when none is passed
    explicitly — the one knob a bench or test flips to trace every
    structure it builds.  {!null} unless opted in. *)

val with_default : t -> (unit -> 'a) -> 'a
(** Run [f] with {!default} rebound, restoring on exit. *)

val now : t -> int
(** [clock ()] of an active sink, [0] for {!null}. *)

(** {2 Instrumentation points} *)

val emit : t -> tid:int -> kind:Event.kind -> uid:int -> arg:int -> unit
(** Generic escape hatch; the typed wrappers below are preferred. *)

val on_alloc : t -> tid:int -> uid:int -> unit

val on_retire : t -> tid:int -> uid:int -> int
(** Records the Retire event and returns its timestamp (0 under
    {!null}).  The caller stamps it into the object header
    ([Memdom.Hdr.set_retired_stamp], mod 2^{!stamp_bits}) so the free
    side — possibly another thread, much later — can measure
    retire→free latency without a shared lookup table. *)

val stamp_bits : int
(** Width of the retire stamp a header keeps: 38 bits, so a latency is
    exact below 2^38 ns (about 4.6 minutes). *)

val on_free : t -> tid:int -> uid:int -> retired_ns:int -> unit
(** Records the Free event; when [retired_ns > 0] also records
    [(now - retired_ns) mod 2^stamp_bits] into the retire→free
    histogram, so a stamp truncated to {!stamp_bits} bits (or a full
    timestamp) gives the same latency across the stamp's wrap. *)

val on_recycle : t -> tid:int -> uid:int -> gen:int -> unit
(** Records the Recycle event: the pool allocator handed out a recycled
    header ([uid] is its {e new} uid, [gen] its new generation).
    Emitted {e instead of} {!on_alloc}, so [alloc] events count fresh
    headers only and [recycle / (alloc + recycle)] is the pool hit
    rate. *)

val on_refill : t -> tid:int -> count:int -> unit
(** Records the Refill event: a pool owner moved a batch of [count]
    headers from its remote-free transfer stack (or an adopted orphan
    free-list) into its local LIFO. *)

val on_handover : t -> tid:int -> uid:int -> unit
val on_cascade : t -> tid:int -> uid:int -> unit

val on_orphan : t -> tid:int -> count:int -> int
(** Records the Orphan event ([arg] = batch size) for a departing
    thread publishing its pending retire list, and returns the
    publication timestamp (0 under {!null}).  The orphan pool keeps the
    timestamp with the batch so {!on_adopt} can measure adoption
    latency. *)

val on_adopt : t -> tid:int -> count:int -> published_ns:int -> unit
(** Records the Adopt event for a surviving thread adopting an orphan
    batch; when [published_ns > 0] also records [now - published_ns]
    into the adoption-latency histogram. *)

val on_snapshot : t -> tid:int -> entries:int -> unit
(** Records the Snapshot event: a batching scan captured the live
    protection rows into a scan-set ([arg] = entries captured). *)

val on_elide : t -> tid:int -> unit
(** Records the Elide event: a protection publish was skipped because
    the slot already held the target.  Only the pointer-based schemes
    emit this (HP/PTP/OrcGC); for era schemes elision is the common
    case and per-event tracing would swamp the rings. *)

val on_stall : t -> tid:int -> stalled:int -> age:int -> unit
(** Records the Stall event: the {!Watchdog} flagged registry slot
    [stalled] as holding a guard for [age] watchdog ticks without
    progress.  [tid] is the background domain doing the flagging, not
    the stalled thread. *)

val on_neutralize : t -> tid:int -> stalled:int -> age:int -> unit
(** Records the Neutralize event: registry slot [stalled], validated as
    stalled for [age] watchdog ticks, had its generation bumped so its
    published protections no longer pin memory.  [tid] is the
    neutralizing background domain. *)

val scan_begin : t -> int
(** Timestamp token to pass to {!scan_end} (0 under {!null}). *)

val scan_end : t -> tid:int -> slots:int -> began:int -> unit
(** Records the Scan event ([arg] = hazard slots visited) and the scan
    duration into the scan histogram. *)

val guard_begin : t -> tid:int -> unit

val guard_end : t -> tid:int -> unit
(** Guards may nest; the duration histogram records the outermost span,
    the ring records every begin/end pair (event [arg] = depth). *)

(** {2 Introspection} *)

val ring : t -> Ring.t option
val retire_free_hist : t -> Hist.t option
val guard_hist : t -> Hist.t option
val scan_hist : t -> Hist.t option
val adopt_hist : t -> Hist.t option

val events : t -> Event.t array list
(** Snapshot of every thread's ring ([[]] for {!null}). *)

val hists : t -> (string * Hist.t) list
(** [("retire_free", h); ("guard", h); ("scan", h); ("adopt", h)] for an
    active sink, [[]] for {!null}. *)
