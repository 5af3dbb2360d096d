(** Header-backed link arenas.

    [arena ~hdr ()] builds an {!Atomicx.Link.arena} whose slot storage
    is the node's {!Hdr.t} ([slot_word]/[slot_release] fields):
    registration stamps the header, and [Alloc.free] releases the slot via
    {!Hdr.release_slot} when the node's life ends.  Every tracked data
    structure builds its arena through this. *)

val arena : hdr:('a -> Hdr.t) -> unit -> 'a Atomicx.Link.arena
