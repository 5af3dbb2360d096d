(** Header-backed link arenas, and node allocation over them.

    [arena ~hdr ()] builds an {!Atomicx.Link.arena} whose slot storage
    is the node's {!Hdr.t} ([slot_word]/[slot_release] fields):
    registration stamps the header, and [Alloc.free] releases the slot via
    {!Hdr.release_slot} when the node's life ends.  Every tracked data
    structure builds its arena through this.

    {b Type-stable node recycling.}  A released slot keeps its last
    occupant, so in [Pool] mode {!node} takes a slot together with the
    record it names and re-initialises that record in place under the
    fresh header, instead of building a new one: a warm add/remove pair
    then allocates no node at all.  [System] mode never does this — a
    record is built for every allocation and a freed one is never
    re-issued, so stale accesses still raise [Hdr.Use_after_free]. *)

val arena : hdr:('a -> Hdr.t) -> unit -> 'a Atomicx.Link.arena

val node :
  Alloc.t ->
  'n Atomicx.Link.arena ->
  tid:int ->
  ('n Atomicx.Link.arena -> Hdr.t -> 'a -> 'n) ->
  ('n -> Hdr.t -> 'a -> 'n) ->
  'a ->
  'n
(** [node alloc arena ~tid mk renew x]: a node under a fresh header
    from [alloc].  In [Pool] mode, when [tid] has a released slot
    ({!Atomicx.Link.reuse_slot}), [renew old hdr x] gets the slot's
    last occupant and returns the slot's next one: [old] re-initialised
    in place (counted by {!Alloc.node_reuses}) or a new record; the
    result is bound to the slot.  Otherwise [mk arena hdr x] builds a
    record, registered on its first publication.  A re-initialiser must
    make every field the new node's, its own header included, and must
    write each embedded link through the link API ({!Atomicx.Link.set_v}
    to [Null]), never by resetting the word, so the link's write stamps
    stay monotone across lives.  Closed [mk] and [renew] allocate
    nothing beyond what they build.  If either raises, the header is
    freed and the slot released. *)

val fresh : _ -> Hdr.t -> (Hdr.t -> 'n) -> 'n
(** Both the [mk] and the [renew] of a node type that is never
    re-initialised in place: the argument is the constructor, and a
    reused slot gets a new record. *)
