(* Glue between the link arenas of [Atomicx.Link] and the object
   headers of this layer: the header is where a node's arena slot lives
   (the slot half of [slot_word] plus the release callback), so the
   arena needs no side table and slot release costs no lookup.  See link.mli for the
   registration/release contract. *)

let arena (type n) ~(hdr : n -> Hdr.t) () : n Atomicx.Link.arena =
  Atomicx.Link.arena
    ~slot_of:(fun n -> Hdr.slot (hdr n))
    ~on_register:(fun n s ~release ->
      let h = hdr n in
      Hdr.set_slot h s;
      h.Hdr.slot_release <- release)
    ()
