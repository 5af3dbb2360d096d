(** LCRQ — Morrison & Afek's linked concurrent ring queue [21], written
    once against {!Intf.CORE}: {!Make} runs it under OrcGC,
    {!Lcrq.Make} over a manual scheme.

    A lock-free list of CRQ segments: each segment is a ring of cells
    driven by fetch-and-add head/tail counters; when a ring fills up or
    livelocks it is *closed* and a fresh segment is linked behind it, MS
    queue style.  The reclamation unit is the segment: the dequeuer
    that swings the queue head past an empty closed segment unlinks it
    with the core's [unlink_v], which retires it under a manual scheme;
    under OrcGC the head/tail roots and the previous segment's [next]
    link are its only counted references, so it is reclaimed once both
    roots have moved past it and no thread protects it.  A segment
    that loses the link race was never published and is discarded.

    The paper's C++ uses a double-word CAS on (flags, index, value)
    cells; here a cell is an immutable boxed record in an [Atomic.t], so
    a single physical CAS covers all three fields.  The cells hold
    plain values, not tracked objects.

    Data structures built on fetch-and-add like this one are exactly
    the class that normalized-form automatic schemes (FreeAccess/AOA)
    cannot handle (§2) — OrcGC and the manual schemes can. *)

open Atomicx

let ring_size = 128
let closed_bit = 1 lsl 62
let idx_mask = closed_bit - 1

module Node (V : sig
  type t
end) =
struct
  type cell = { safe : bool; cidx : int; value : V.t option }

  type t = {
    ring : cell Atomic.t array;
    qhead : int Atomic.t;
    qtail : int Atomic.t; (* bit 62 = closed *)
    next : t Link.t;
    hdr : Memdom.Hdr.t;
  }

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

module Impl
    (V : sig
      type t
    end)
    (O : Intf.CORE with type node = Node(V).t) =
struct
  module Nd = Node (V)
  open Nd

  open Intf.Fresh (O)

  type item = V.t

  type t = {
    head : Nd.t Link.t;
    tail : Nd.t Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = O.name

  let ring_of n =
    Memdom.Hdr.check_access n.hdr;
    n.ring

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let fresh_cell i = { safe = true; cidx = i; value = None }

  let mk_crq ?first g hdr =
    let ring = Array.init ring_size (fun i -> Atomic.make (fresh_cell i)) in
    let qtail =
      match first with
      | Some v ->
          Atomic.set ring.(0) { safe = true; cidx = 0; value = Some v };
          1
      | None -> 0
    in
    {
      ring;
      qhead = Atomic.make 0;
      qtail = Atomic.make qtail;
      next = O.new_link_v g Link.v_null;
      hdr;
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("lcrq/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let crq = alloc_into g (O.ptr g) (mk_crq g) in
        {
          head = O.new_link_v g (O.v_ptr orc crq);
          tail = O.new_link_v g (O.v_ptr orc crq);
          orc;
          alloc;
        })

  let rec close_crq crq =
    let t = Atomic.get crq.qtail in
    if t land closed_bit = 0 then
      if not (Atomic.compare_and_set crq.qtail t (t lor closed_bit)) then
        close_crq crq

  (* Try to enqueue into one segment; [`Closed] means a new segment is
     needed. *)
  let enq_crq crq v =
    let rec loop attempts =
      if attempts > 4 * ring_size then begin
        close_crq crq;
        `Closed
      end
      else
        let t = Atomic.fetch_and_add crq.qtail 1 in
        if t land closed_bit <> 0 then `Closed
        else begin
          let cell = (ring_of crq).(t mod ring_size) in
          let c = Atomic.get cell in
          let ok =
            match c.value with
            | None -> c.cidx <= t && (c.safe || Atomic.get crq.qhead <= t)
            | Some _ -> false
          in
          if
            ok
            && Atomic.compare_and_set cell c
                 { safe = true; cidx = t; value = Some v }
          then `Ok
          else if t - Atomic.get crq.qhead >= ring_size then begin
            close_crq crq;
            `Closed
          end
          else loop (attempts + 1)
        end
    in
    loop 0

  (* Head passed tail: bring tail forward so emptiness is observable. *)
  let rec fix_state crq =
    let h = Atomic.get crq.qhead in
    let t = Atomic.get crq.qtail in
    if h > t land idx_mask then
      if not (Atomic.compare_and_set crq.qtail t (t land closed_bit lor h))
      then fix_state crq

  let rec deq_crq crq =
    let h = Atomic.fetch_and_add crq.qhead 1 in
    let cell = (ring_of crq).(h mod ring_size) in
    let rec cell_loop () =
      let c = Atomic.get cell in
      match c.value with
      | Some v ->
          if c.cidx = h then
            if
              Atomic.compare_and_set cell c
                { safe = c.safe; cidx = h + ring_size; value = None }
            then `Got v
            else cell_loop ()
          else if Atomic.compare_and_set cell c { c with safe = false } then
            `Skip
          else cell_loop ()
      | None ->
          if
            Atomic.compare_and_set cell c
              { safe = c.safe; cidx = h + ring_size; value = None }
          then `Skip
          else cell_loop ()
    in
    match cell_loop () with
    | `Got v -> Some v
    | `Skip ->
        let t = Atomic.get crq.qtail land idx_mask in
        if t <= h + 1 then begin
          fix_state crq;
          None
        end
        else deq_crq crq

  let enqueue q v =
    O.with_guard q.orc @@ fun g ->
    let ltail = O.ptr g and lnext = O.ptr g and np = O.ptr g in
    let rec loop () =
      O.load g q.tail ltail;
      let crq = O.Ptr.node_exn ltail in
      let nx = Link.view (next_of crq) in
      if Link.v_has_target nx then begin
        (* tail is lagging: swing it onto its protected successor *)
        O.load g (next_of crq) lnext;
        ignore
          (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
             ~desired:(O.Ptr.view lnext));
        loop ()
      end
      else
        match enq_crq crq v with
        | `Ok -> ()
        | `Closed ->
            let ncrq = alloc_into g np (mk_crq ~first:v g) in
            let nv = O.v_ptr q.orc ncrq in
            if O.cas_v g (next_of crq) ~expected:nx ~desired:nv then
              ignore (O.cas_v g q.tail ~expected:(O.Ptr.view ltail) ~desired:nv)
            else begin
              (* lost the link race: never published *)
              O.discard g ncrq;
              loop ()
            end
    in
    loop ()

  let dequeue q =
    O.with_guard q.orc @@ fun g ->
    let lhead = O.ptr g and lnext = O.ptr g in
    let rec loop () =
      O.load g q.head lhead;
      let crq = O.Ptr.node_exn lhead in
      match deq_crq crq with
      | Some v -> Some v
      | None -> (
          O.load g (next_of crq) lnext;
          if not (Link.v_has_target (O.Ptr.view lnext)) then
            None (* truly empty *)
          else
            (* a successor exists: drain once more, then advance *)
            match deq_crq crq with
            | Some v -> Some v
            | None ->
                (* make sure the tail is past this segment before it can
                   be retired: tail is a root reference too.  A tail
                   equal to the head names the protected segment. *)
                let tail_v = Link.view q.tail in
                if Link.v_same tail_v (O.Ptr.view lhead) then
                  ignore
                    (O.cas_v g q.tail ~expected:tail_v
                       ~desired:(O.Ptr.view lnext));
                ignore (O.unlink_v g q.head lhead ~desired:(O.Ptr.view lnext));
                loop ())
    in
    loop ()

  let destroy q = O.release_roots q.orc [ q.head; q.tail ]
  let unreclaimed q = O.unreclaimed q.orc
  let flush q = O.flush q.orc
  let alloc q = q.alloc
end

module Make (V : sig
  type t
end) =
  Impl (V) (Orc_core.Orc.Make (Node (V)))
