(** LCRQ — Morrison & Afek's linked concurrent ring queue [21],
    parameterized by a manual reclamation scheme.

    A lock-free list of CRQ segments: each segment is a ring of cells
    driven by fetch-and-add head/tail counters; when a ring fills up or
    livelocks it is *closed* and a fresh segment is linked behind it, MS
    queue style.  The reclamation unit is the segment: the dequeuer that
    swings the queue head past an empty closed segment retires it.

    The paper's C++ uses a double-word CAS on (flags, index, value)
    cells; here a cell is an immutable boxed record in an [Atomic.t], so
    a single physical CAS covers all three fields.

    Note: data structures built on fetch-and-add like this one are
    exactly the class that normalized-form automatic schemes
    (FreeAccess/AOA) cannot handle (§2) — OrcGC and the manual schemes
    can. *)

open Atomicx

let ring_size = 128
let closed_bit = 1 lsl 62
let idx_mask = closed_bit - 1

module Make (V : sig
  type t
end)
(R : Reclaim.Scheme_intf.MAKER) =
struct
  type item = V.t

  type cell = { safe : bool; cidx : int; value : V.t option }

  type node = {
    ring : cell Atomic.t array;
    qhead : int Atomic.t;
    qtail : int Atomic.t; (* bit 62 = closed *)
    next : node Link.t;
    hdr : Memdom.Hdr.t;
  }

  module S = R (struct
    type t = node

    let hdr n = n.hdr
  end)

  type t = {
    head : node Link.t;
    tail : node Link.t;
    scheme : S.t;
    alloc : Memdom.Alloc.t;
    arena : node Link.arena;
  }

  let scheme_name = S.name

  let ring_of n =
    Memdom.Hdr.check_access n.hdr;
    n.ring

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let fresh_cell i = { safe = true; cidx = i; value = None }

  let mk_crq ?first alloc arena =
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
      next = Link.make_in arena Link.Null;
      hdr = Memdom.Alloc.hdr alloc ();
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "lcrq" in
    let scheme = S.create ~max_hps:2 alloc in
    let arena = Memdom.Handle.arena ~hdr:(fun n -> n.hdr) () in
    let crq = mk_crq alloc arena in
    {
      head = Link.make_in arena (Link.Ptr crq);
      tail = Link.make_in arena (Link.Ptr crq);
      scheme;
      alloc;
      arena;
    }

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
    let tid = Registry.tid () in
    S.begin_op q.scheme ~tid;
    let rec loop () =
      let ltail_v = S.get_protected_v q.scheme ~tid ~idx:0 q.tail in
      let crq = Link.v_target_exn q.tail ltail_v in
      let nx = Link.view (next_of crq) in
      if Link.v_has_target nx then begin
        (* tail is lagging *)
        ignore (Link.cas_v q.tail ltail_v nx);
        loop ()
      end
      else
        match enq_crq crq v with
        | `Ok -> ()
        | `Closed ->
            let ncrq = mk_crq ~first:v q.alloc q.arena in
            let nv = Link.v_ptr_in q.arena ncrq in
            if Link.cas_v (next_of crq) nx nv then
              ignore (Link.cas_v q.tail ltail_v nv)
            else begin
              (* lost the link race: never published *)
              Memdom.Alloc.free q.alloc ncrq.hdr;
              loop ()
            end
    in
    loop ();
    S.end_op q.scheme ~tid

  let dequeue q =
    let tid = Registry.tid () in
    S.begin_op q.scheme ~tid;
    let rec loop () =
      let lhead_v = S.get_protected_v q.scheme ~tid ~idx:0 q.head in
      let crq = Link.v_target_exn q.head lhead_v in
      match deq_crq crq with
      | Some v -> Some v
      | None -> (
          let next_v = S.get_protected_v q.scheme ~tid ~idx:1 (next_of crq) in
          if not (Link.v_has_target next_v) then None (* truly empty *)
          else
            (* a successor exists: drain once more, then advance *)
            match deq_crq crq with
            | Some v -> Some v
            | None ->
                (* make sure the tail is past this segment before it can
                   be retired: tail is a root reference too *)
                let tail_v = Link.view q.tail in
                if Link.v_same tail_v lhead_v then
                  ignore (Link.cas_v q.tail tail_v next_v);
                if Link.cas_v q.head lhead_v next_v then
                  S.retire q.scheme ~tid crq;
                loop ())
    in
    let r = loop () in
    S.end_op q.scheme ~tid;
    r

  let destroy q =
    let rec drain () = match dequeue q with Some _ -> drain () | None -> () in
    drain ();
    (match Link.target (Link.get q.head) with
    | Some crq -> Memdom.Alloc.free q.alloc crq.hdr
    | None -> ());
    Link.set q.head Link.Null;
    Link.set q.tail Link.Null;
    S.flush q.scheme

  let unreclaimed q = S.unreclaimed q.scheme
  let flush q = S.flush q.scheme
  let alloc q = q.alloc
end
