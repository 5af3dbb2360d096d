(** Michael–Scott lock-free queue [20], parameterized by a *manual*
    reclamation scheme (HP, PTB, PTP, EBR, ...).

    This is the classical target of manual schemes: the dequeuer that
    swings [head] knows the old sentinel just became unreachable and
    calls [retire] at exactly that point.  Hazard indexes: 0 protects the
    head/tail snapshot, 1 the successor. *)

open Atomicx

module Make (V : sig
  type t
end)
(R : Reclaim.Scheme_intf.MAKER) =
struct
  type item = V.t

  type node = {
    item : V.t option; (* [None] only in the initial sentinel *)
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

  (* Checked accessors: every dereference validates the node's lifecycle
     so that a reclamation bug raises [Memdom.Hdr.Use_after_free]. *)
  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let item_of n =
    Memdom.Hdr.check_access n.hdr;
    n.item

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "ms_queue" in
    let scheme = S.create ~max_hps:4 alloc in
    let arena = Memdom.Handle.arena ~hdr:(fun n -> n.hdr) () in
    let sentinel =
      {
        item = None;
        next = Link.make_in arena Link.Null;
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    {
      head = Link.make_in arena (Link.Ptr sentinel);
      tail = Link.make_in arena (Link.Ptr sentinel);
      scheme;
      alloc;
      arena;
    }

  let enqueue q v =
    let tid = Registry.tid () in
    S.begin_op q.scheme ~tid;
    let node =
      {
        item = Some v;
        next = Link.make_in q.arena Link.Null;
        hdr = Memdom.Alloc.hdr q.alloc ();
      }
    in
    let nv = Link.v_ptr_in q.arena node in
    let backoff = Backoff.create () in
    let rec loop () =
      let ltail_v = S.get_protected_v q.scheme ~tid ~idx:0 q.tail in
      (* the tail is never null *)
      let ltail = Link.v_target_exn q.tail ltail_v in
      let lnext_v = Link.view (next_of ltail) in
      if Link.v_is_null lnext_v then
        if Link.cas_v (next_of ltail) lnext_v nv then
          ignore (Link.cas_v q.tail ltail_v nv)
        else begin
          Backoff.once backoff;
          loop ()
        end
      else begin
        (* help: swing the lagging tail forward *)
        ignore (Link.cas_v q.tail ltail_v lnext_v);
        loop ()
      end
    in
    loop ();
    S.end_op q.scheme ~tid

  let dequeue q =
    let tid = Registry.tid () in
    S.begin_op q.scheme ~tid;
    let backoff = Backoff.create () in
    let rec loop () =
      let lhead_v = S.get_protected_v q.scheme ~tid ~idx:0 q.head in
      let lhead = Link.v_target_exn q.head lhead_v in
      let ltail_v = Link.view q.tail in
      let lnext_v = S.get_protected_v q.scheme ~tid ~idx:1 (next_of lhead) in
      (* re-validate: head must not have moved while we protected next *)
      if not (Link.view_eq (Link.view q.head) lhead_v) then loop ()
      else if not (Link.v_has_target lnext_v) then
        (* empty (head = tail with no successor) *)
        None
      else if Link.v_same lhead_v ltail_v then begin
        (* tail is lagging: help and retry *)
        ignore (Link.cas_v q.tail ltail_v lnext_v);
        loop ()
      end
      else if Link.cas_v q.head lhead_v lnext_v then begin
        let v = item_of (Link.v_target_exn q.head lnext_v) in
        S.retire q.scheme ~tid lhead;
        v
      end
      else begin
        Backoff.once backoff;
        loop ()
      end
    in
    let r = loop () in
    S.end_op q.scheme ~tid;
    r

  (* Quiesced teardown: drain remaining items, free the sentinel, drain
     the scheme.  After this [Memdom.Alloc.live q.alloc] should be 0. *)
  let destroy q =
    let rec drain () = match dequeue q with Some _ -> drain () | None -> () in
    drain ();
    (match Link.target (Link.get q.head) with
    | Some sentinel -> Memdom.Alloc.free q.alloc sentinel.hdr
    | None -> ());
    Link.set q.head Link.Null;
    Link.set q.tail Link.Null;
    S.flush q.scheme

  let unreclaimed q = S.unreclaimed q.scheme
  let flush q = S.flush q.scheme
  let alloc q = q.alloc
end
