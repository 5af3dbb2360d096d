(** Common interface of manual memory-reclamation schemes (§2, §3).

    Every scheme — the baselines here (hazard pointers, pass-the-buck,
    epoch-based, hazard eras) and the paper's pass-the-pointer in
    [Orc_core.Ptp] — exposes the same three operations the paper names:
    *protect* (via {!S.get_protected_v}), *retire* and *clear*, plus the
    per-operation brackets that quiescence-based schemes need.

    Schemes are functors over the node type so that the hazard arrays are
    fully typed: no [Obj], no existential trickery.  A data structure
    instantiates [Make (N)] with its own node record, which only has to
    expose its embedded {!Memdom.Hdr.t}. *)

open Atomicx

(** Unified introspection record: every scheme counts the same four
    monotonic quantities, so Table-1 bound measurements and forensics
    no longer special-case OrcGC's richer stats. *)
type stats = {
  retires : int;  (** objects handed to [retire] *)
  frees : int;  (** objects returned to the allocator *)
  scans : int;  (** protection-scan passes (HP scan, PTP handover walk,
                    PTB liberate, EBR/HE/IBR reclaim pass) *)
  scan_slots : int;  (** protection slots visited by those passes *)
  snapshot_builds : int;
      (** scan-set snapshots built (one per batching scan) *)
  snapshot_hits : int;
      (** retired nodes a snapshot membership test found protected *)
  elided : int;
      (** protection publishes skipped because the slot already held
          the target *)
}

let pp_stats_record fmt s =
  Format.fprintf fmt
    "retires=%d frees=%d unreclaimed=%d scans=%d scan-slots=%d snapshots=%d \
     snapshot-hits=%d elided=%d"
    s.retires s.frees (s.retires - s.frees) s.scans s.scan_slots
    s.snapshot_builds s.snapshot_hits s.elided

(** The per-thread-sharded counter bundle behind {!stats}, shared by all
    scheme implementations (one padded cell per registry slot, merged on
    read — the [Atomicx.Shard] soundness caveat applies: a concurrent
    read is exact to within one in-flight delta per thread). *)
module Counters = struct
  type t = {
    retires : Shard.t;
    frees : Shard.t;
    scans : Shard.t;
    scan_slots : Shard.t;
    snapshot_builds : Shard.t;
    snapshot_hits : Shard.t;
    elided : Shard.t;
  }

  let create () =
    {
      retires = Shard.create ();
      frees = Shard.create ();
      scans = Shard.create ();
      scan_slots = Shard.create ();
      snapshot_builds = Shard.create ();
      snapshot_hits = Shard.create ();
      elided = Shard.create ();
    }

  let retired t ~tid = Shard.incr t.retires ~tid
  let freed t ~tid = Shard.incr t.frees ~tid

  let scanned t ~tid ~slots =
    Shard.incr t.scans ~tid;
    Shard.add t.scan_slots ~tid slots

  let snapshot_built t ~tid = Shard.incr t.snapshot_builds ~tid
  let snapshot_hit t ~tid = Shard.incr t.snapshot_hits ~tid
  let elided t ~tid = Shard.incr t.elided ~tid

  let stats t : stats =
    {
      retires = Shard.get t.retires;
      frees = Shard.get t.frees;
      scans = Shard.get t.scans;
      scan_slots = Shard.get t.scan_slots;
      snapshot_builds = Shard.get t.snapshot_builds;
      snapshot_hits = Shard.get t.snapshot_hits;
      elided = Shard.get t.elided;
    }

  (* retires and frees are monotonic and frees never outruns retires in
     quiescence, so the difference is the unreclaimed population.  The
     reads must be sequenced retires-first: both counters only grow, so
     reading [frees] second can only shrink the difference, and the
     report is bounded by the true population at the first read.  (The
     one-expression form read [frees] first — OCaml evaluates operands
     right to left — and a descheduled reader could see the whole
     workload retire in between, reporting thousands of phantom
     pending objects on a single-core host.) *)
  let unreclaimed t =
    let r = Shard.get t.retires in
    let f = Shard.get t.frees in
    max 0 (r - f)
end

module type NODE = sig
  type t

  val hdr : t -> Memdom.Hdr.t
  (** The object header embedded in the node. *)
end

module type S = sig
  type node
  type t

  val name : string
  (** Short name used in benchmark tables ("hp", "ptp", ...). *)

  val create : ?max_hps:int -> ?sink:Obs.Sink.t -> Memdom.Alloc.t -> t
  (** [create alloc] builds scheme state sized for
      [Atomicx.Registry.max_threads] threads and [max_hps] hazardous
      pointers per thread (the paper's [H], default 8).  Freed nodes are
      returned to [alloc].  [sink] receives lifecycle events
      (retire/scan/guard) and defaults to [Memdom.Alloc.sink alloc], so
      a structure traced through its allocator needs no extra
      plumbing.  [create] also registers the scheme's {!orphan} hook
      with [Atomicx.Registry.on_quarantine], so domain exit and
      [force_release] clean up the departing tid automatically for the
      scheme's whole lifetime. *)

  val begin_op : t -> tid:int -> unit
  (** Enter a data-structure operation.  No-op for pointer-based schemes;
      epoch/era schemes mark the thread active here.

      {b Neutralization handshake} (see {!Neutralize}): while a
      neutralizing reclaimer is armed, every scheme checks the caller's
      pending flag at its entry points.  [begin_op] and [end_op]
      acknowledge silently (nothing published yet / finalizer paths
      must not raise); [clear] does not look at the flag (lowering a
      protection is safe either way); [get_protected_v],
      [copy_protection] and [retire] acknowledge and raise
      [Neutralize.Neutralized] — every protection validated before the
      neutralization is gone, so the operation must restart.  Unarmed,
      the check is one shared atomic load. *)

  val end_op : t -> tid:int -> unit
  (** Leave the operation: clears all this thread's protections. *)

  val get_protected_v :
    t -> tid:int -> idx:int -> node Atomicx.Link.t -> node Atomicx.Link.view
  (** Read [link] and protect its target in hazard slot [idx], looping
      until the published protection is validated against a re-read
      (Algorithm 2 lines 4–11).  Returns the validated view, mark bits
      and write stamp included — the value to use as a [cas_v]
      expectation.  Lock-free: a retry implies another thread made
      progress.  The pointer-publishing schemes perform no minor-heap
      allocation on this path.  The validation re-derefs the word after
      publishing: an unchanged word does not prove the arena slot kept
      its meaning, so the scheme confirms the decoded node (and its
      uid) is unchanged before trusting the protection (see DESIGN.md,
      "Word-packed representation"). *)

  val protect_raw : t -> tid:int -> idx:int -> node -> unit
  (** Publish [node] at [idx] without validation — only legal when the
      caller already owns a safe reference (e.g. a node it just
      allocated and has not yet shared).  {!clear} unpublishes. *)

  val copy_protection : t -> tid:int -> src:int -> dst:int -> unit
  (** Duplicate the protection held at [src] into [dst] (both slots of
      the calling thread).  This is how traversals rotate their hazard
      slots: unlike [protect_raw] it preserves protection even for nodes
      already retired — essential for era-based schemes, where a freshly
      published era would *not* cover a node whose death era has already
      passed. *)

  val clear : t -> tid:int -> idx:int -> unit
  (** Drop the protection at [idx]. *)

  val retire : t -> tid:int -> node -> unit
  (** Hand an unreachable node to the scheme; it will be freed once no
      thread protects it.  Precondition (same as HP/PTB/HE, §3.1): the
      node is no longer reachable from any global reference.  A
      batching scheme scans once the caller's list reaches
      R = {!Tuning.threshold} (the paper's 2·H·t over the live thread
      count); the thresholds are constants, and a stalled reader is
      handled by neutralization, not by retuning them. *)

  val orphan : t -> tid:int -> unit
  (** Lifecycle cleaner for a departing thread: force-clear every
      protection slot [tid] published, drain anything parked on it, and
      publish its pending retire list to the scheme's orphan pool (or
      re-retire it through the handover path), so the next owner of a
      recycled [tid] starts from clean state and the dead thread's
      garbage is adopted by survivors within O(1) scans.  Registered
      with [Registry.on_quarantine] by [create]; runs on the departing
      thread during [Registry.release] and on the reclaiming thread
      during [force_release] (the owner provably dead).  Idempotent and
      safe for tids the scheme never saw. *)

  val orphaned : t -> int
  (** Nodes awaiting adoption in the orphan pool (diagnostics; always 0
      for schemes that drain through handover instead of pooling). *)

  val unreclaimed : t -> int
  (** Nodes retired but not yet freed — the quantity the paper's memory
      bounds constrain: O(Ht) for PTP, O(Ht²) for HP/PTB, unbounded for
      EBR. *)

  val stats : t -> stats
  (** Monotonic observability counters (sharded per thread, merged on
      read; exact to within one in-flight delta per thread). *)

  val pp_stats : Format.formatter -> t -> unit

  val flush : t -> unit
  (** Quiesced best-effort drain (all worker threads stopped): free
      whatever is no longer protected.  Used by tests and shutdown to
      verify leak-freedom; not part of the concurrent algorithm. *)

  val max_hps : t -> int
end

module type MAKER = functor (N : NODE) -> S with type node = N.t
