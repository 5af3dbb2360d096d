(** The signature of one OrcGC instance, whichever backend {!Orc.Make}
    or {!Orc.Make_hp} plugs in: the automatic layer's handles, guards
    and [orc_atomic] mutators (paper §4, Algorithms 3–7) plus
    introspection.  Kept apart so that {!Orc}'s implementation and
    interface name one definition. *)

module type S = sig
  type node

  type t
  (** One OrcGC instance: the hazard/handover arrays and the allocator
      accounting for one data structure. *)

  type guard
  (** A per-operation protection scope — the lifetime within which
      pointer handles are valid (standing in for C++ block scope). *)

  val name : string

  val create : ?max_hps:int -> ?sink:Obs.Sink.t -> Memdom.Alloc.t -> t
  (** [create alloc] builds an instance whose reclaimed objects return to
      [alloc].  The hazard array is self-sizing under both backends.
      Under {!Orc.Make} [max_hps] is ignored (accepted for interface
      symmetry with the manual schemes); under {!Orc.Make_hp} it is the H
      of the scan threshold R = 2·H·t (default 8).
      [sink] receives lifecycle events (retire, handover, cascade, scan,
      guard) and defaults to [Memdom.Alloc.sink alloc].  Each instance
      builds its own {!arena} from [N.hdr]: every link of the structure
      indexes it, views are immediate words and the read hot path
      allocates nothing.  Every [load] publishes the target's uid:
      hazards are one unboxed word per slot.  [create] also
      registers {!thread_exit} with [Atomicx.Registry.on_quarantine],
      so domain exit and [force_release] clean up departing tids
      automatically. *)

  val thread_exit : t -> tid:int -> unit
  (** Quarantine cleaner for a departing [tid]: unpublish its hazards,
      reset its hazard-index bookkeeping (so a recycled tid starts from
      an empty mask) and dispose of everything its row still owned.
      Under PTP the queued recursive retires, parked handovers and
      background buffer go through the operating thread's retire path;
      under HP the retired list is published to the orphan pool that
      the survivors' scans adopt.  Registered automatically by {!create};
      callable directly only when [tid]'s owner has exited or is
      provably stopped. *)

  val with_guard : t -> (guard -> 'a) -> 'a
  (** Run one data-structure operation.  On exit — normal or exceptional
      — every handle created in the scope is released, freed hazard
      slots are unpublished, and (PTP) parked handovers are adopted,
      exactly where the C++ [orc_ptr] destructors would run.

      {b Neutralization handshake} (see {!Reclaim.Neutralize}): while a
      neutralizing reclaimer is armed, guard entry and exit acknowledge
      a pending neutralization silently, and {!load}, {!assign}, the
      mutators and {!alloc_node_into} acknowledge and raise
      [Reclaim.Neutralize.Neutralized] — every protection the guard
      held is gone, so the operation must restart under a fresh guard.
      A guard whose protections were expired mid-flight releases only
      its owner-local bookkeeping on exit; retirement of its targets
      has already passed to other threads.  Unarmed, the checks cost
      one shared atomic load each.

      Guards and handles live in per-tid storage ({!Frame}) that the
      tid allocates on its first guard, so entering and leaving a guard
      and creating handles allocate nothing.  Guards nest: an inner
      guard on the same tid leaves the outer guard's handles alone and
      releases only its own, newest first.  A handle belongs to the
      guard that created it and is reused once that guard exits. *)

  val with_guard2 : t -> (guard -> 'a -> 'b -> 'r) -> 'a -> 'b -> 'r
  (** [with_guard2 t f a b] is [with_guard t (fun g -> f g a b)]
      without the closure: with a closed [f], an operation allocates
      no guard at all. *)

  (** Local references ([orc_ptr], Algorithm 7). *)
  module Ptr : sig
    type t

    val view : t -> node Atomicx.Link.view
    (** The exact word this handle read, write stamp included — the
        value to use as a [cas_v] expectation, and the one a stale read
        is told apart by ({!Atomicx.Link.view_eq}).  Holding or
        comparing it allocates nothing. *)

    val node : t -> node option
    (** The protected target, decoded from {!view}. *)

    val node_exn : t -> node
    val is_marked : t -> bool
    val is_poison : t -> bool
    val is_null : t -> bool
    val same_node : t -> t -> bool

    val retag_v : t -> node Atomicx.Link.view -> unit
    (** Replace the held view by another for the {e same} target — used
        after a successful CAS to keep validating against the value
        actually installed ({!Atomicx.Link.v_after}).  Raises
        [Invalid_argument] on a different target. *)
  end

  val ptr : guard -> Ptr.t
  (** A fresh null handle owning a hazard index.  [guard] must be the
      innermost open guard of its tid ([Invalid_argument] otherwise). *)

  val load : guard -> node Atomicx.Link.t -> Ptr.t -> unit
  (** [load g link p]: protect [link]'s current state in [p] (publish
      and re-validate, Algorithm 2 lines 4–11).  [link] must be
      reachable through a protected node or a root, and must not belong
      to the node [p] itself currently protects.  [p]'s previous target
      gets its zero-count check before its slot is overwritten. *)

  val advance : guard -> Ptr.t -> Ptr.t -> Ptr.t -> unit
  (** [advance g prev curr next]: one traversal hop as a pure
      permutation of the three handles — [prev] takes [curr]'s target
      and hazard index, [curr] takes [next]'s, [next] takes [prev]'s
      old pair.  No publish, no index bookkeeping, no atomic operation:
      every hazard slot keeps publishing what it did, so unlike
      {!assign} no direction rule applies.  It replaces
      [assign g prev curr; assign g curr next].

      {b Contract:} afterwards [next] names [prev]'s old target, which
      is still protected but no longer the successor of anything.
      [next] must be {!load}ed (which also runs the old target's
      zero-count check), or the guard exited, before anything reads
      it.  The three handles must be distinct ([Invalid_argument]
      otherwise).  Unlike the other entry points it makes no
      neutralization check; the next [load] does. *)

  val drop : guard -> Ptr.t -> unit
  (** [drop g p]: end [p]'s protection now instead of at guard exit.
      Runs the zero-count check on [p]'s target while it is still
      published, then unpublishes [p]'s slot (unless another handle
      shares it) and (PTP) adopts anything parked in its handover — so a
      node the caller unlinked, and handed over to itself, is freed here.
      [p] stays a valid null handle for later loads. *)

  val assign : guard -> Ptr.t -> Ptr.t -> unit
  (** [assign g dst src]: copy [src]'s reference and protection into
      [dst], observing the index-direction rule of the paper's
      assignment operator (copies only travel in hazard-scan order;
      otherwise a fresh higher index is taken). *)

  val alloc_node : guard -> (Memdom.Hdr.t -> node) -> Ptr.t
  (** [make_orc]: allocate a node (the callback receives its fresh
      header) and return it protected.  If it is never linked anywhere,
      it is reclaimed when the guard ends. *)

  val alloc_node_into : guard -> Ptr.t -> (Memdom.Hdr.t -> node) -> node
  (** Like {!alloc_node} but reusing an existing handle — for retry
      loops that would otherwise exhaust hazard indexes. *)

  (** {2 orc_atomic mutators (Algorithm 4)}

      All of them maintain the hard-link counts of the old and new
      targets and trigger retirement when a count reaches zero.  The
      target of a written view must be protected by the caller (held in
      a live [Ptr] or freshly allocated).  Writes are word operations on
      the structure's arena links and box nothing; [cas_v] is a single
      word compare-and-set, stamp included (see {!Atomicx.Link}). *)

  val store_v : guard -> node Atomicx.Link.t -> node Atomicx.Link.view -> unit

  val cas_v :
    guard ->
    node Atomicx.Link.t ->
    expected:node Atomicx.Link.view ->
    desired:node Atomicx.Link.view ->
    bool
  (** Counts move only on success; a pure mark/flag change on the same
      target moves no counts. *)

  val unlink_v :
    guard -> node Atomicx.Link.t -> Ptr.t -> desired:node Atomicx.Link.view -> bool
  (** [unlink_v g link victim ~desired]: {!cas_v} expecting [victim]'s
      view, for the CAS that physically unlinks [victim].  On success
      [victim]'s protection ends as by {!drop}, but between the two
      count moves: the removed hard link keeps the victim's count up
      until its decrement, so ending the protection first is safe, and
      the decrement that zeroes the count finds no protection of the
      caller's (under PTP it frees the node at once instead of handing
      it over to the caller's own slot).  [victim]
      is left a null handle on success and untouched on failure. *)

  val v_ptr : t -> node -> node Atomicx.Link.view
  (** Clean-pointer view of a node the caller protects, at stamp 0
      (registers the node in the arena — the caller must own the node
      privately or hold it protected).  A value to write; a CAS
      expectation must be a loaded view. *)

  val new_link_v : guard -> node Atomicx.Link.view -> node Atomicx.Link.t
  (** Build a link during single-threaded construction of a node or root
      whose initial target is private or otherwise protected; the
      target's count goes up by one. *)

  val arena : t -> node Atomicx.Link.arena
  (** The instance's handle table, for links that hold no count
      ({!Atomicx.Link.make_in}) and for decoding views. *)

  (** {2 Introspection} *)

  val alloc_ctx : t -> Memdom.Alloc.t

  val unreclaimed : t -> int
  (** Objects currently retired (BRETIRED set) but not yet freed — the
      quantity bounded by O(Ht) under PTP (Table 1), O(Ht²) under HP. *)

  type stats = {
    retires : int;  (** objects that ever entered the retired state *)
    handovers : int;
        (** successful tryHandover passes (Algorithm 6); 0 under HP *)
    cascades : int;
        (** destructor-triggered recursive retires drained through the
            recursive list (§4.1); 0 under HP *)
    scans : int;  (** tryHandover invocations (PTP), retired-list scans (HP) *)
    scan_slots : int;
        (** hazard slots visited by those invocations — whitebox check
            that scan cost is [registered * watermark] per scan, not
            [Registry.max_threads * watermark] *)
    elided : int;
        (** hazard publishes skipped by [load] because the slot already
            held the target's uid *)
  }

  val stats : t -> stats
  (** Monotonic observability counters, for benchmarks and forensics.
      Sharded per thread and aggregated here; a read concurrent with
      operations is exact to within one in-flight delta per thread. *)

  val hazard_row : guard -> (int * int) array
  (** Whitebox snapshot of the caller's hazard row up to the watermark:
      per slot, the published uid ([-1] = empty) and the number of
      handles sharing the slot's index. *)

  val hazard_watermark : t -> int
  (** [1 +] the highest hazard index ever used by any thread — the
      per-thread width of hazard scans (the H of the O(Ht) bound as
      actually instantiated). *)

  val set_background : t -> Reclaim.Channel.t option -> unit
  (** Background drain mode.  With [Some ch], under PTP a mutator that
      claims a zero-count object buffers it thread-locally and ships
      the batch to the reclaimer as a {!Reclaim.Channel.job} — BRETIRED
      ownership travels with the closure, and retire revalidates the
      count under the reclaimer's tid exactly as it would inline; under
      HP a threshold crossing ships the swapped-out retired list, which
      the reclaimer splices into its own list and scans.  A refused
      send (channel closed or full — reclaimer dead or behind) reclaims
      the batch inline, so backpressure and reclaimer death degrade to
      the [None] behaviour.  [None] (the default) reclaims inline.
      Setup/teardown-only knob: flip it while the structure is
      quiescent, or accept that racing retires may use either path for
      one batch.  {!flush} drains the thread-local buffers but not the
      channel — stop or recover the reclaimer first. *)

  val tuning : t -> Reclaim.Tuning.t
  (** The structure's live knob record (fresh per {!create}). *)

  val set_tuning : t -> Reclaim.Tuning.t -> unit
  (** Swap in a (possibly shared) knob record.  Under PTP the
      background batch size is read per buffered retire, so a retune
      takes effect on the next batch boundary; under HP the cached scan
      threshold is re-derived at once. *)

  val flush : t -> unit
  (** Quiesced drain for tests and shutdown: unpublish every hazard,
      then reclaim everything the backend holds — under PTP every
      parked handover and background buffer, under HP every retired
      list, scanned to a fixed point.
      Destroys all live protections — only call with no concurrent
      operations. *)

  (** {2 The manual-scheme calls, as no-ops}

      A structure written once against [Ds.Intf.CORE] makes the calls a
      manual scheme needs at the program points where it needs them.
      Under OrcGC the hard-link counts do that work, so [retire],
      [retire_region] and [discard] do nothing: an unlinked node — or a
      whole excised region — is freed when its count drops, and a
      never-published node by the handle that holds it.  In particular
      orc never poisons a region. *)

  val retire : guard -> Ptr.t -> unit
  val retire_region : guard -> Ptr.t -> keep:node Atomicx.Link.view -> unit
  val discard : guard -> node -> unit

  val release_roots : t -> node Atomicx.Link.t list -> unit
  (** Quiesced teardown: store null into each root, so the counts
      cascade through everything only the roots kept alive, then
      {!flush} (under HP the cascade parks on the retired lists). *)
end
