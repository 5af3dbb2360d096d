(** Type-stable pool of recycled headers: the real allocator behind
    [Alloc]'s [Pool] mode.

    The paper's custom-allocator regime (§2) keeps freed node memory
    inside the pool, readable and type-stable, so reclamation schemes
    may tolerate stale reads and the allocation hot path never touches
    the system allocator in the steady state.  This module is that
    regime for headers: [free]d headers are kept and handed back out by
    {!Hdr.recycle} instead of being rebuilt (a record plus two
    [Atomic.t] boxes per node on the hottest path otherwise).

    Layout, per registry slot (DEBRA-style per-thread bags with batched
    transfer):

    - a {b local LIFO free-list}, owner-only: push on same-thread free,
      pop on allocation — no atomics and no shared word on the hit
      path;
    - a {b lock-free Treiber transfer stack} for remote frees (freeing
      tid ≠ allocating tid): the freeing thread CAS-pushes onto the
      {e owner}'s stack, and the owner drains it into its local list in
      batches of at most 64 only when the local list runs
      dry — remote frees are amortized, never on the hit path.

    The allocating owner of a header is recovered from its uid
    ([uid mod max_threads], the encoding [Alloc] uses), so no extra
    header field is needed.

    {b Domain churn.}  The pool registers a [Registry.on_quarantine]
    cleaner: when a tid dies, its local free-list and transfer stack
    are published as one batch to an {!Orphan} pool (the same machinery
    schemes use for retire lists) and adopted by whichever thread next
    misses — a dead domain's free-list feeds survivors instead of
    leaking.  A remote free can race the cleaner's drain and land in a
    quarantined slot's transfer stack; such headers are not lost, they
    are recovered by the slot's next owner's first miss.

    Counters ([hits]/[misses]/[remote_frees]/[refills]) are sharded per
    thread ({!Atomicx.Shard}); the sink sees [Recycle] and [Refill]
    events plus the [Orphan]/[Adopt] pair from the churn path. *)

type t

val create : Obs.Sink.t -> t
(** A pool reporting to the given sink.  Registers its quarantine
    cleaner; the registration lives exactly as long as [t] (the
    registry holds cleaners weakly and [t] keeps the closure). *)

val miss : Hdr.t
(** The header {!acquire} returns on a miss; never handed out, so
    [h == miss] is the miss test. *)

val acquire : t -> tid:int -> Hdr.t
(** Pop a recycled header for [tid]: local list first; on a dry list,
    drain up to 64 remote frees, then try adopting orphaned
    free-lists.  A recycled header counts a hit (it is still [Freed] —
    the caller restamps it with {!Hdr.recycle}); {!miss} counts a miss
    and the caller builds a fresh header.  A hit allocates nothing. *)

val release : t -> tid:int -> Hdr.t -> unit
(** Return a [Freed] header to the pool: local push when [tid] owns it,
    CAS-push onto the owner's transfer stack otherwise. *)

val hits : t -> int
val misses : t -> int
val remote_frees : t -> int

val refills : t -> int
(** Transfer-stack drains plus orphan adoptions that yielded headers. *)

val orphaned : t -> int
(** Headers published by dead tids, not yet adopted (diagnostics). *)
