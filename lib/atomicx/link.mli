(** Atomic links between nodes, with mark/flag/tag bits.

    In the C++ original a link is a raw [std::atomic<Node*>] whose low
    bits carry deletion marks and whose CAS compares machine words.
    Here a link is one heap block whose first field is the link word,
    accessed with the atomic primitives: the target's slot in a
    per-structure {!arena} shifted left 3, the mark/flag/tag bits in
    the low bits ([Null] = 0, [Poison] = 1), and a {e write stamp} in
    the high bits.  Reads allocate nothing and CAS is a genuine word
    compare-and-set.

    {b Write stamps.}  Every write ({!set_v}, {!cas_v}, {!exchange_v})
    installs the previous word's stamp plus one, so a view read from a
    link never reappears in it after any later write — not even when
    the link is rewritten A→B→A.  A CAS, or a {!view_eq}, against a
    view loaded before some other write to the link therefore always
    fails.  [Null] and [Poison] carry no identity: they compare by
    payload alone, whatever stamp the link word holds.  An expectation
    {e constructed} with {!v_ptr_in} (stamp 0) only matches a link that
    was never written since it was built; CAS expectations must be
    views loaded from the link.

    {b Views} are the raw words: the allocation-free read surface.  The
    [state] variant survives for construction ({!make_in}), quiescent
    teardown and tests ({!get}/{!set}). *)

type 'a state =
  | Null
  | Ptr of 'a
  | Mark of 'a
  | Flag of 'a
  | Tag of 'a
  | FlagTag of 'a
  | Poison

type 'a t
(** A link: a block whose field 0 is the atomic word and whose field 1
    is the arena its targets live in.

    {b Layout rule.}  The atomic primitives act on field 0 of the block
    they are given, so any block laid out as
    [{ mutable word : int; arena : 'a arena; ... }] is a link: field 0
    the link word, field 1 the arena, further fields its owner's.
    {!Memdom.Hdr.orc} views a header's field 0 as its [_orc] word by the
    same rule.  A link built by {!make_in} or {!make_of_view} is a block
    of exactly these two fields; a node record that begins with them is
    its own link ({!embedded}) and needs no link block. *)

type 'a view = private int
(** What a link holds: the raw word, stamp included.  Reading,
    comparing and bit-twiddling views never allocates. *)

(** {2 Arenas (handle tables)}

    A word names its target by index into a per-structure arena: a
    lock-free chunked table whose chunks never move (so a registration
    store cannot be lost to growth).  A slot keeps its last occupant
    until reuse — type-stable memory, the same assumption the paper's
    reclamation schemes already make.  Registration happens on the
    thread that still owns the node privately; release is wired
    through {!Memdom.Hdr.t} by the allocator when the node is freed.  A
    node belongs to one arena.

    {b Slot reuse is thread-local.}  A released slot goes to the
    releasing tid's own LIFO cache of at most {!arena_cache_cap} slots,
    and a registration takes from the registering tid's cache first,
    so a release followed by a registration on one tid touches no
    shared word and allocates nothing.  The shared free list behind the
    caches is a Treiber stack of slot batches, touched only in batches:
    a full cache spills its older half onto it as one batch (one batch
    array and one cons cell, the only allocation of slot reuse), an
    empty cache refills by popping one batch, and a quarantine cleaner
    ({!Registry.on_quarantine}, held by the arena) pushes a departing
    tid's cached slots as one batch.  A slot costs one word of its
    chunk and nothing else: the free list needs no per-slot link. *)

type 'a arena

val arena :
  slot_of:('a -> int) ->
  on_register:('a -> int -> release:(tid:int -> int -> unit) -> unit) ->
  unit ->
  'a arena
(** [arena ~slot_of ~on_register ()] builds a handle table.  [slot_of]
    reads the node's stored slot (-1 when unregistered); [on_register]
    stores a freshly assigned slot and the [release] callback into the
    node (typically its header), to be invoked once, as
    [release ~tid slot] by the freeing thread [tid], when the node is
    freed. *)

(** {2 Type-stable reuse}

    A released slot keeps its last occupant, so an allocator can take
    the slot and the record together and re-initialise the record in
    place instead of building a new one ([Memdom.Handle.node]). *)

val reuse_slot : 'a arena -> tid:int -> int
(** A released slot for [tid], from its cache (refilled from the shared
    list when empty), or -1 when neither holds one.  The slot still
    names its last occupant ({!occupant}) but counts as live: it must
    be {!bind}ed or {!release}d again.  A never-used slot is left to
    the registration path ({!v_ptr_in}, {!make_in}). *)

val occupant : 'a arena -> int -> 'a
(** The record last registered at a slot. *)

val bind : 'a arena -> int -> 'a -> unit
(** [bind a s n] registers [n] at the slot [s] that {!reuse_slot}
    returned — [n] its occupant re-initialised, or a new record — and
    stamps [n] through [on_register].  The caller owns [n] privately. *)

val release : 'a arena -> tid:int -> int -> unit
(** Return a slot to [tid]'s cache: what the [release] callback that
    [on_register] receives does.  A caller that keeps the slot's
    occupant reachable (a destructor still dropping its links) releases
    the slot itself, once the occupant may be re-initialised. *)

val arena_live : 'a arena -> int
val arena_capacity : 'a arena -> int
(** Diagnostics: registrations minus released slots, and the
    bump-allocated slot high-water. *)

val arena_cache_cap : int
(** Capacity of a tid's slot cache. *)

val arena_cached : 'a arena -> tid:int -> int
(** Slots in [tid]'s cache (whitebox tests). *)

val arena_shared_free : 'a arena -> int
(** Slots on the shared free list, summed over its batches (whitebox
    tests). *)

(** {2 Construction} *)

val make_in : 'a arena -> 'a state -> 'a t
(** A link at stamp 0; registers the target when it was never
    registered. *)

val make_of_view : 'a arena -> 'a view -> 'a t
(** Like {!make_in} but seeded from a view's target and bits. *)

val embedded : 'r -> 'a t
(** [embedded r] views the record [r] as the link it begins with, by
    the layout rule of {!t}: [r]'s field 0 must be [mutable word : int]
    and its field 1 [arena : 'a arena].  Nothing checks this, nor ['a]:
    pin both types at the call site (a typed wrapper per node type).
    The record literal initialises [word] to 0, [Null] at stamp 0, and
    the first target goes in through a store, as into any link built
    by {!make_in} [a Null]; after that [word] is read and written only
    through this view.  Allocates nothing. *)

(** {2 States: construction, quiescent teardown, tests}

    [get] decodes (allocating a state) and [set] encodes; both are
    stamped like every other access.  Concurrent code uses views. *)

val get : 'a t -> 'a state
val set : 'a t -> 'a state -> unit
val target : 'a state -> 'a option
val is_marked : 'a state -> bool
val is_poison : 'a state -> bool

(** {2 Views — the allocation-free hot path} *)

val view : 'a t -> 'a view

val view_eq : 'a view -> 'a view -> bool
(** Word equality, stamp included; [Null]/[Poison] by payload alone.
    Two views of one link are [view_eq] only if no write separated
    their loads (or the link held [Null]/[Poison] both times). *)

val v_null : 'a view
val v_poison : 'a view
val v_is_null : 'a view -> bool
val v_is_poison : 'a view -> bool
val v_is_marked : 'a view -> bool
val v_is_flagged : 'a view -> bool
val v_is_tagged : 'a view -> bool
val v_has_target : 'a view -> bool

val v_clean : 'a view -> 'a view
(** Strip mark/flag/tag, keeping target and stamp. *)

val v_mark : 'a view -> 'a view
(** Set the mark bit on a view with a target; identity otherwise. *)

val v_flag : 'a view -> 'a view
val v_tag : 'a view -> 'a view
(** Set the flag / tag bit (BST edge states), preserving target, stamp
    and the other bit; [Null], [Poison] and marked views are returned
    unchanged. *)

val v_same : 'a view -> 'a view -> bool
(** Same target and bits, stamps ignored: the logical comparison of
    views loaded from different links. *)

val v_after : 'a view -> 'a view -> 'a view
(** [v_after expected desired] is the word a successful
    [cas_v l expected desired] installs when [expected] has a target:
    [desired]'s target and bits under [expected]'s stamp plus one.  The
    view to keep validating against after such a CAS. *)

val v_target_exn : 'a t -> 'a view -> 'a
(** Dereference through the link's arena (any link of the same
    structure works).  Raises [Invalid_argument] on [Null]/[Poison].
    {b Stability:} the result is only guaranteed to stay the word's
    meaning while the caller's reclamation protection (hazard/era/orc
    count) pins the target. *)

val v_node : 'a arena -> 'a view -> 'a
(** Like {!v_target_exn} with an explicit arena. *)

val v_ptr_in : 'a arena -> 'a -> 'a view
(** The clean-pointer view of [n] at stamp 0 (registers [n] when it was
    never registered).  A value to write, not to expect. *)

val v_of_state_in : 'a arena -> 'a state -> 'a view
val v_state_in : 'a arena -> 'a view -> 'a state
val v_state : 'a t -> 'a view -> 'a state

val set_v : 'a t -> 'a view -> unit
(** Install [v]'s target and bits under the next stamp. *)

val cas_v : 'a t -> 'a view -> 'a view -> bool
(** [cas_v l expected desired]: if [l] holds [expected] (the exact
    word when [expected] has a target; any [Null]/[Poison] word of the
    same payload otherwise), install [desired]'s target and bits under
    the next stamp. *)

val exchange_v : 'a t -> 'a view -> 'a view
(** {!set_v} returning the word it replaced. *)
