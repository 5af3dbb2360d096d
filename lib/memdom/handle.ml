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

(* A record is re-issued only once its slot is released: [Alloc.free]
   does that for a manual scheme's free, OrcGC's destructor after it
   has dropped the record's links.  Until then no allocation can take
   the record, and once the slot is free nobody may write it but its
   next owner — here. *)
let node alloc arena ~tid mk renew x =
  let h = Alloc.hdr alloc () in
  let s =
    match Alloc.mode alloc with
    | Alloc.System -> -1
    | Alloc.Pool -> Atomicx.Link.reuse_slot arena ~tid
  in
  if s < 0 then begin
    match mk arena h x with
    | n -> n
    | exception e ->
        Alloc.free alloc h;
        raise e
  end
  else
    let old = Atomicx.Link.occupant arena s in
    match renew old h x with
    | n ->
        Atomicx.Link.bind arena s n;
        if n == old then Alloc.reused alloc ~tid;
        n
    | exception e ->
        Atomicx.Link.release arena ~tid s;
        Alloc.free alloc h;
        raise e

let fresh _ hdr mk = mk hdr
