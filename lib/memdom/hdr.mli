(** Object header: the explicit lifecycle every tracked object carries.

    This is the heart of the substitution that makes the paper
    reproducible in a garbage-collected language (see DESIGN.md §1).  A
    C++ node that is deleted too early causes undefined behaviour; here,
    every tracked object embeds a header whose lifecycle is

    {v Live --retire--> Retired --free--> Freed v}

    and data structures route field accesses through {!check_access}.  In
    [strict] mode (the "system allocator" of the paper, §2) touching a
    [Freed] object raises {!Use_after_free} — the analogue of the
    segfault.  In non-strict mode (type-stable custom allocator) the
    access is tolerated, and the [generation] counter lets tests detect
    ABA-style reuse.  The check reads one word of the header block,
    [access], which {!mark_freed} sets once it has won the Freed
    transition; [state] stays the authority for every transition.

    The header also hosts the per-object words the various schemes need,
    all of them word-packed (DESIGN.md, "Word-packed representation"):

    - [state]: lifecycle in the low 2 bits, generation above.  The
      Live↔Retired transitions are single [Atomic.fetch_and_add]s — no
      read-before-CAS, no loop, no allocation.
    - [_orc]: the OrcGC [_orc] word (22-bit count, BRETIRED, sequence,
      Algorithm 3) — the header's own first field, read and written as
      an atomic through {!orc} by the orc schemes with mask
      arithmetic.
    - [eras]: birth and death hazard-era stamps packed 31+31 into one
      plain word of the header block, so a reader gets the pair from
      one load (a one-word load is never torn) and retire-side
      stamping never allocates.  Read through
      {!birth_era}/{!death_era}, written through {!set_death_era}.
    - [slot_word]/[slot_release]: the object's link arena slot (see
      {!Atomicx.Link.arena}), released exactly once by the allocator
      when the object is freed, packed with the retire stamp.

    Seven fields, because a major-heap block lands in a size class
    (whsize ..., 6, 8, 10, ...): with its header word the block is 8
    words, where 8 or 9 fields would take 10 and 6 would still take 8.
    The allocator's label and the tracing retire stamp ride in the
    spare bits of [access] and [slot_word]. *)

exception Use_after_free of string
exception Double_free of string
exception Double_retire of string

type lifecycle = Live | Retired | Freed

type t = {
  mutable _orc : int;
      (** field 0, the OrcGC word: 22-bit count, BRETIRED, sequence.
          Read and written only through {!orc}. *)
  mutable uid : int;
      (** unique allocation id, for diagnostics.  Mutable only so
          {!recycle} can restamp a pooled header; uids never repeat —
          every hand-out (fresh or recycled) draws a new one. *)
  mutable access : int;
      (** what {!check_access} reads.  Bits 0–1 are the freed word: 0
          tolerant (a Pool header, never changes), 1 strict and not
          freed, 2 strict and freed.  {!mark_freed} turns 1 into 2 right
          after it wins the Freed CAS on [state], {!recycle} turns 2
          back into 1.  A copy of a fact [state] decides, kept in the
          header block so the per-hop check reads no second block;
          never written elsewhere.  The bits above hold the label id
          ({!intern}), constant over every life of the header. *)
  state : int Atomic.t;  (** lifecycle in low bits, generation above *)
  mutable eras : int;
      (** hazard eras, packed: birth in bits 0–30, death in bits 31–61
          (all-ones death = not retired).  Use the accessors.  A plain
          word is enough: the birth stamp is written before the object
          is published, the death stamp by the retiring thread (the
          retire transition's single owner), and the readers — that
          thread's HE/IBR scans, or an adopter that took its retired
          list through the orphan pool's atomic — are ordered after
          the writer by an atomic they already perform. *)
  mutable slot_word : int;
      (** link arena slot + 1 in bits 0–23 (0 = unregistered), and the
          retire stamp — the retire timestamp mod
          2^[Obs.Sink.stamp_bits], 0 when never retired or traced with
          a null sink — in bits 24–61.  Use {!slot}/{!set_slot} and
          {!retired_stamp}/{!set_retired_stamp}.  The slot is written by
          the registering thread while it still privately owns the
          node, and cleared by {!release_slot}; the stamp is written by
          the retiring thread and read by the freeing thread, which
          measures retire→free latency from it without any shared
          lookup table. *)
  mutable slot_release : tid:int -> int -> unit;
      (** how to hand [slot] back to its arena (as [release ~tid slot]
          from the freeing tid); installed at registration, reset by
          {!release_slot}. *)
}

val intern : string -> int
(** The label id of an allocator name: the same id for the same name,
    for the life of the process.  [Alloc.create] interns its name
    once. *)

val label : t -> string
(** The header's label: the name its id was interned from. *)

val slot : t -> int
(** The link arena slot, -1 when unregistered. *)

val set_slot : t -> int -> unit
(** Record a freshly registered slot, leaving the retire stamp alone. *)

val retired_stamp : t -> int
(** The retire stamp: the last retire's timestamp mod
    2^[Obs.Sink.stamp_bits], 0 when none. *)

val set_retired_stamp : t -> int -> unit
(** Stamp the retire time (retiring thread only), or clear it with 0;
    keeps the slot.  A timestamp that is 0 mod 2^[Obs.Sink.stamp_bits]
    reads as no stamp, one retire in 2^38. *)

val orc : t -> int Atomic.t
(** The header's [_orc] word as an atomic: a view of the header's own
    block (its field 0), not a separate cell. *)

val lifecycle : t -> lifecycle
val generation : t -> int

val birth_era : t -> int
val death_era : t -> int
(** [max_int] when the object has not been retired. *)

val set_death_era : t -> int -> unit
(** Stamp the death era (retiring thread only — the retire transition
    has a single owner, so the packed word needs no RMW loop). *)

val check_access : t -> unit
(** Validate that dereferencing this object is safe.  Raises
    {!Use_after_free} when the object is [Freed] and the header is
    strict.  Reads only the header's [access] word, one plain load of
    the header block; a free on another domain is seen once the free
    happens-before the check (a join, or the atomic that handed the
    object over).  Every field accessor of every data structure in this
    library calls it, so scheme bugs surface as exceptions in stress
    tests rather than silent corruption. *)

val mark_retired : t -> unit
(** [Live -> Retired].  Raises {!Double_retire} if already retired and
    {!Use_after_free} if already freed — retiring twice is a scheme bug
    the paper's algorithms must never exhibit.  One fetch-and-add. *)

val unretire : t -> unit
(** [Retired -> Live]: OrcGC can pull an object back out of the retired
    state when a new hard link appears (§4.1, [clearBitRetired]).  One
    fetch-and-add. *)

val mark_freed : t -> unit
(** [_ -> Freed].  Raises {!Double_free} on a second call.  The winner
    of the Freed CAS then marks a strict header's [access] word freed. *)

val is_freed : t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Construction} — used by {!Alloc}; data structures should allocate
    through an allocator, not build headers directly. *)

val make : uid:int -> label:int -> strict:bool -> birth_era:int -> t
(** [label] is an id from {!intern}. *)

val recycle : t -> uid:int -> birth_era:int -> unit
(** [Freed -> Live], the type-stable pool allocator's reuse path: resets
    the header to a freshly allocated state — new [uid], new
    [birth_era], death era and retire stamp cleared, the [_orc] word back
    to {!orc_initial}, a strict header's [access] back to not freed —
    while {b bumping the generation}, which is
    carried across lives so it is strictly monotone over the header's
    whole pooled lifetime (the ABA/use-after-free batteries key on
    this).  The label of the first life is kept.  Raises
    {!Double_free} when the header is not [Freed]: recycling something
    still live (or racing another recycler for the same header) is a
    pool bug, reported with the same exception a double [free] gets. *)

val release_slot : t -> tid:int -> unit
(** Hand the arena slot (if any) back to its table, exactly once, from
    the freeing thread [tid].  Called by [Alloc.free] after the Freed
    transition; idempotent.  The retire stamp is kept. *)

val detach_slot : t -> int
(** Unregister the header from its arena slot without releasing the
    slot, which the caller then owns: returns the slot (-1 when
    unregistered) and keeps the retire stamp.  Read [slot_release]
    first to release it later.  OrcGC's destructor does this so that
    the node's record, which the slot names, is not re-issued while
    the destructor still drops its links. *)

val orc_initial : int
(** Initial value of the [_orc] word ([ORC_ZERO], Algorithm 3 line 8). *)
