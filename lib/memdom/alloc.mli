(** Allocator contexts: who hands out headers and accounts for them.

    The paper distinguishes schemes that work with the *system allocator*
    (freed memory may leave the process; touching it segfaults) from
    those requiring *custom, type-stable allocators* (freed memory stays
    readable).  An [Alloc.t] models one such allocator:

    - {!mode} [System]: headers are strict — access after free raises
      [Hdr.Use_after_free] (the poisoning regime); every {!hdr} builds a
      fresh header.
    - {!mode} [Pool]: a real type-stable pool ({!Pool}).  [free]d
      headers go back to per-thread LIFO free-lists (remote frees via a
      lock-free per-slot transfer stack, drained in batches) and are
      handed out again by [Hdr.recycle] — same physical header, {b new
      uid}, new birth era, and a {b strictly monotone generation} across
      lives, so post-free reads are tolerated (type-stable memory) while
      ABA-style reuse stays observable to tests.  A dying domain's
      free-list is published to an orphan pool and adopted by survivors.

    It also keeps the counters the evaluation needs: objects allocated,
    freed, and currently live ("live" = allocated and not yet freed,
    which includes retired-but-unreclaimed objects — the quantity the
    paper's memory bounds are about).  In Pool mode, {!allocated} counts
    every hand-out (fresh or recycled), so the live/leak arithmetic is
    mode-independent. *)

type mode = System | Pool

type t

val create : ?mode:mode -> ?sink:Obs.Sink.t -> string -> t
(** [create label] makes an allocator named [label] (defaults to
    [System], the stricter checking).  [sink] receives Alloc/Free
    lifecycle events and the retire→free latency samples (measured
    against [Hdr.retired_stamp], which the retiring scheme stamps); it
    defaults to the ambient [!Obs.Sink.default] — the null sink unless a
    bench or test opts in — and is what schemes created over this
    allocator inherit.  Pool mode additionally emits [Recycle]/[Refill]
    events and the orphan-handoff pair. *)

val mode : t -> mode
val label : t -> string

val sink : t -> Obs.Sink.t
(** The sink this allocator reports to (schemes default to it). *)

val hdr : t -> unit -> Hdr.t
(** Allocate a header labelled with the allocator's name (interned once
    by {!create}).  The header's [birth_era] snapshots {!era}.  In Pool
    mode this is the free-list hit path: a recycled header gets a fresh
    uid and a bumped generation ([Hdr.recycle]); only a miss builds a
    new record. *)

val free : t -> Hdr.t -> unit
(** Return an object to the allocator: marks it [Freed] (raising
    [Hdr.Double_free] on a second free) and updates the counters.  In
    Pool mode the header then re-enters the free-lists: pushed on the
    caller's own LIFO when the caller allocated it, CAS-pushed onto the
    allocating slot's transfer stack otherwise (a {e remote free}). *)

val era : t -> int
(** Current era of this allocator's era clock (used by hazard-eras). *)

val bump_era : t -> int
(** Atomically advance the era clock, returning the new era. *)

val allocated : t -> int
val freed : t -> int

val live : t -> int
(** [allocated - freed]: objects not yet returned.  After quiescing and
    draining a correct scheme this should equal the data structure's
    reachable size — the leak check used throughout the test suite. *)

(** {2 Pool counters} — all 0 for a [System] allocator. *)

val pool_hits : t -> int
(** Hand-outs served from a free-list (recycled headers). *)

val pool_misses : t -> int
(** Hand-outs that had to build a fresh header. *)

val remote_frees : t -> int
(** Frees routed through a transfer stack (freeing tid ≠ allocating
    tid). *)

val refills : t -> int
(** Batched drains into a local list (transfer-stack drains + orphan
    adoptions that yielded headers). *)

val hit_rate : t -> float
(** [hits / (hits + misses)] in [0, 1]; [0.] when the pool was never
    asked (including every System allocator). *)

val pp_stats : Format.formatter -> t -> unit
(** [label: allocated/freed/live], plus hits/misses/hit-rate/
    remote-frees/refills for Pool mode. *)
