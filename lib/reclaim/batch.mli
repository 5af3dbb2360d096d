(** The retired-list engine under every batching scheme: HP, HE, IBR,
    EBR and PTB, and OrcGC's hazard-pointer backend.

    Per registry slot it owns the retired list and its length; per
    instance, the cached R threshold and the orphan pool.  A scheme
    brings only its verdict: {!scan} takes the scheme's snapshot and
    membership test as arguments.

    Row [tid] is owner-private plain state: only [tid], or a thread
    that provably owns the slot (quarantine), touches it. *)

type 'a t

val create :
  hps:int ->
  sink:Obs.Sink.t ->
  scans:Atomicx.Shard.t ->
  scan_slots:Atomicx.Shard.t ->
  'a t
(** An engine over [hps] hazards per thread (the H of R = 2·H·t).
    [scans] and [scan_slots] are the owner's counters, bumped by every
    {!scan}. *)

val push : 'a t -> tid:int -> 'a -> bool
(** Add a retiree; [true] when [tid]'s list has reached R, re-derived
    from the live thread count before the crossing is reported.  The caller
    then scans, on the retiring thread. *)

val add : 'a t -> tid:int -> 'a -> unit
(** Add an entry without the threshold test, keeping the count exact
    (PTB's drained handoffs and liberate leftovers). *)

val take : 'a t -> tid:int -> 'a list
(** Detach [tid]'s whole list. *)

val pending : 'a t -> tid:int -> int
val threshold : 'a t -> int

val refresh : 'a t -> unit
(** Re-derive the cached R ({!Tuning.threshold}): on quarantine and
    neutralization. *)

val scan :
  'a t ->
  's ->
  tid:int ->
  snapshot:('s -> tid:int -> visited:int ref -> 'c) ->
  keep:('s -> tid:int -> 'c -> 'a -> bool) ->
  unit
(** One scan of [tid]'s list: adopt orphans, detach the list, read the
    protection plane once with [snapshot] (which counts the slots it
    reads into [visited]), then judge every entry with [keep]: [true]
    keeps it, [false] means [keep] freed it or gave up ownership.
    Entries the verdicts push back (an OrcGC destructor retiring the
    successor it zeroed) are judged too, against a fresh snapshot,
    until a pass pushes nothing.  Counts one scan with every slot
    visited and emits one sink scan span.  The first pass runs even
    over an empty list.  Pass top-level functions and the scan builds
    no closure. *)

val orphan : 'a t -> tid:int -> unit
(** Quarantine: refresh R and publish [tid]'s list to the orphan pool,
    for the next scan by any thread to adopt. *)

val publish : 'a t -> tid:int -> 'a list -> unit
(** Publish entries held on no list to the orphan pool. *)

val adopt : 'a t -> tid:int -> unit
(** Splice every orphaned batch into [tid]'s list. *)

val orphaned : 'a t -> int
