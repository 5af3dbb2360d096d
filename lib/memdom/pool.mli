(** Type-stable pool of recycled headers: the real allocator behind
    [Alloc]'s [Pool] mode.

    The paper's custom-allocator regime (§2) keeps freed node memory
    inside the pool, readable and type-stable, so reclamation schemes
    may tolerate stale reads and the allocation hot path never touches
    the system allocator in the steady state.  This module is that
    regime for headers: [free]d headers are kept and handed back out by
    {!Hdr.recycle} instead of being rebuilt (a record plus an
    [Atomic.t] box per node on the hottest path otherwise).  The node
    records themselves are recycled through their arena slots
    ([Handle.node]).

    Layout, per registry slot (DEBRA-style per-thread bags with batched
    transfer):

    - a {b local free list}, an owner-only array stack: push on
      same-thread free, pop on allocation — no atomics, no shared word
      and no allocation on the hit path;
    - an {b outbox} of remote frees (freeing tid ≠ allocating tid), one
      buffer of up to 32 headers per owner, owner-only: a full buffer
      goes to the owner as one batch, and every partial one goes when
      its tid misses;
    - a {b lock-free Treiber transfer stack} of such batches: freeing
      threads CAS-push onto the {e owner}'s stack, and the owner takes
      every batch with one exchange, only when its local stack runs
      dry — remote frees are amortized, never on the hit path.

    The allocating owner of a header is recovered from its uid
    ([uid mod max_threads], the encoding [Alloc] uses), so no extra
    header field is needed.

    {b Domain churn.}  The pool registers a [Registry.on_quarantine]
    cleaner: when a tid dies, its local stack, the batches sent to it
    and the remote frees in its outbox are published as one batch to an
    {!Orphan} pool (the same machinery schemes use for retire lists)
    and adopted by whichever thread next misses — a dead domain's
    free-list feeds survivors instead of leaking.  A remote batch can
    race the cleaner's drain and land in a quarantined slot's transfer
    stack; such headers are not lost, they are recovered by the slot's
    next owner's first miss.

    Counters ([hits]/[misses]/[remote_frees]/[refills]/[reuses]) are
    sharded per thread ({!Atomicx.Shard}); the sink sees [Recycle] and
    [Refill] events plus the [Orphan]/[Adopt] pair from the churn
    path. *)

type t

val create : Obs.Sink.t -> t
(** A pool reporting to the given sink.  Registers its quarantine
    cleaner; the registration lives exactly as long as [t] (the
    registry holds cleaners weakly and [t] keeps the closure). *)

val miss : Hdr.t
(** The header {!acquire} returns on a miss; never handed out, so
    [h == miss] is the miss test. *)

val acquire : t -> tid:int -> Hdr.t
(** Pop a recycled header for [tid]: local stack first; on a dry stack,
    send [tid]'s partial outboxes to their owners, take every batch
    remote freers sent, then try adopting orphaned
    free-lists.  A recycled header counts a hit (it is still [Freed] —
    the caller restamps it with {!Hdr.recycle}); {!miss} counts a miss
    and the caller builds a fresh header.  A hit allocates nothing. *)

val release : t -> tid:int -> Hdr.t -> unit
(** Return a [Freed] header to the pool: local push when [tid] owns it,
    into [tid]'s outbox for the owner otherwise. *)

val reused : t -> tid:int -> unit
(** Count one node record re-initialised in place ([Handle.node]). *)

val hits : t -> int
val misses : t -> int

val remote_frees : t -> int
(** Headers freed by a tid other than their owner. *)

val refills : t -> int
(** Transfer-stack drains plus orphan adoptions that yielded headers. *)

val reuses : t -> int
(** Node records re-initialised in place instead of rebuilt. *)

val orphaned : t -> int
(** Headers published by dead tids, not yet adopted (diagnostics). *)
