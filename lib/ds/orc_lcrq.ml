(** LCRQ with OrcGC — segment lifetime managed entirely by hard-link
    counts: the queue's head/tail roots and the previous segment's [next]
    link are the only references, so a segment is reclaimed exactly when
    both roots have moved past it and no thread protects it.  The ring
    cells themselves hold plain values, not tracked objects.

    This queue uses fetch-and-add, which places it outside the
    Timnat–Petrank normalized form — FreeAccess and AOA cannot be applied
    to it (§2), while OrcGC needs only the type annotations. *)

open Atomicx

let ring_size = Lcrq.ring_size
let closed_bit = Lcrq.closed_bit
let idx_mask = Lcrq.idx_mask

module Make (V : sig
  type t
end) =
struct
  type item = V.t

  type cell = { safe : bool; cidx : int; value : V.t option }

  type node = {
    ring : cell Atomic.t array;
    qhead : int Atomic.t;
    qtail : int Atomic.t;
    next : node Link.t;
    hdr : Memdom.Hdr.t;
  }

  module O = Orc_core.Orc.Make (struct
    type t = node

    let hdr n = n.hdr
    let iter_links n f = f n.next
  end)

  type t = {
    head : node Link.t;
    tail : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = "orc"

  let ring_of n =
    Memdom.Hdr.check_access n.hdr;
    n.ring

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let fresh_cell i = { safe = true; cidx = i; value = None }

  let mk_crq ?first arena hdr =
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
      hdr;
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "orc_lcrq" in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let cp = O.alloc_node g (mk_crq (O.arena orc)) in
        {
          head = O.new_link_v g (O.Ptr.view cp);
          tail = O.new_link_v g (O.Ptr.view cp);
          orc;
          alloc;
        })

  let rec close_crq crq =
    let t = Atomic.get crq.qtail in
    if t land closed_bit = 0 then
      if not (Atomic.compare_and_set crq.qtail t (t lor closed_bit)) then
        close_crq crq

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
    let ltail = O.ptr g and lnext = O.ptr g in
    let np = O.ptr g in
    let rec loop () =
      O.load g q.tail ltail;
      let crq = O.Ptr.node_exn ltail in
      O.load g (next_of crq) lnext;
      if not (O.Ptr.is_null lnext) then begin
        ignore
          (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
             ~desired:(O.Ptr.view lnext));
        loop ()
      end
      else
        match enq_crq crq v with
        | `Ok -> ()
        | `Closed ->
            let ncrq =
              O.alloc_node_into g np (mk_crq ~first:v (O.arena q.orc))
            in
            if
              O.cas_v g (next_of crq) ~expected:(O.Ptr.view lnext)
                ~desired:(O.v_ptr q.orc ncrq)
            then
              ignore
                (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
                   ~desired:(O.v_ptr q.orc ncrq))
            else loop ()
    in
    loop ()

  let dequeue q =
    O.with_guard q.orc @@ fun g ->
    let lhead = O.ptr g and lnext = O.ptr g and ltail = O.ptr g in
    let rec loop () =
      O.load g q.head lhead;
      let crq = O.Ptr.node_exn lhead in
      match deq_crq crq with
      | Some v -> Some v
      | None -> (
          O.load g (next_of crq) lnext;
          if O.Ptr.is_null lnext then None
          else
            match deq_crq crq with
            | Some v -> Some v
            | None ->
                O.load g q.tail ltail;
                if O.Ptr.same_node ltail lhead then
                  ignore
                    (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
                       ~desired:(O.Ptr.view lnext));
                ignore
                  (O.cas_v g q.head ~expected:(O.Ptr.view lhead)
                     ~desired:(O.Ptr.view lnext));
                loop ())
    in
    loop ()

  let destroy q =
    O.with_guard q.orc @@ fun g ->
    O.store_v g q.head Link.v_null;
    O.store_v g q.tail Link.v_null

  let unreclaimed q = O.unreclaimed q.orc
  let flush q = O.flush q.orc
  let alloc q = q.alloc
end
