(** Michael–Scott lock-free queue [20] (paper Algorithm 1), written
    once against {!Intf.CORE}: {!Make} runs it under OrcGC,
    {!Ms_queue.Make} over a manual scheme.

    The classical target of manual schemes: the dequeuer that swings
    [head] knows the old sentinel just became unreachable, and that CAS
    is the core's [unlink_v] — which retires the sentinel under a
    manual scheme and, under OrcGC, only ends its protection: the
    count drop reclaims it.  Versus the textbook algorithm only the
    reclamation calls differ (paper §4.1.1 methodology).

    An enqueue holds three handles (the new node, the tail, its
    successor), a dequeue two (the head, its successor).  The dequeue
    re-validates [head] after protecting its successor, as hazard
    pointers need; under OrcGC that costs one load. *)

open Atomicx

module Node (V : sig
  type t
end) =
struct
  type t = { item : V.t option; next : t Link.t; hdr : Memdom.Hdr.t }

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

  (* Checked accessors: every dereference validates the node's lifecycle
     so that a reclamation bug raises [Memdom.Hdr.Use_after_free]. *)
  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let item_of n =
    Memdom.Hdr.check_access n.hdr;
    n.item

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("ms_queue/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let s =
          alloc_into g (O.ptr g) (fun hdr ->
              { item = None; next = O.new_link_v g Link.v_null; hdr })
        in
        let head = O.new_link_v g (O.v_ptr orc s) in
        let tail = O.new_link_v g (O.v_ptr orc s) in
        { head; tail; orc; alloc })

  let enqueue q v =
    O.with_guard q.orc @@ fun g ->
    let n =
      alloc_into g (O.ptr g) (fun hdr ->
          { item = Some v; next = O.new_link_v g Link.v_null; hdr })
    in
    let nv = O.v_ptr q.orc n in
    let ltail = O.ptr g and lnext = O.ptr g in
    let backoff = Backoff.create () in
    let rec loop () =
      O.load g q.tail ltail;
      (* the tail is never null *)
      let tl = O.Ptr.node_exn ltail in
      let nx = Link.view (next_of tl) in
      if Link.v_is_null nx then begin
        if O.cas_v g (next_of tl) ~expected:nx ~desired:nv then
          ignore (O.cas_v g q.tail ~expected:(O.Ptr.view ltail) ~desired:nv)
        else begin
          Backoff.once backoff;
          loop ()
        end
      end
      else begin
        (* help: swing the lagging tail onto its protected successor *)
        O.load g (next_of tl) lnext;
        ignore
          (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
             ~desired:(O.Ptr.view lnext));
        loop ()
      end
    in
    loop ()

  let dequeue q =
    O.with_guard q.orc @@ fun g ->
    let lhead = O.ptr g and lnext = O.ptr g in
    let backoff = Backoff.create () in
    let rec loop () =
      O.load g q.head lhead;
      let ltail_v = Link.view q.tail in
      O.load g (next_of (O.Ptr.node_exn lhead)) lnext;
      (* re-validate: head must not have moved while we protected next *)
      if not (Link.view_eq (Link.view q.head) (O.Ptr.view lhead)) then loop ()
      else if not (Link.v_has_target (O.Ptr.view lnext)) then
        (* empty (head = tail with no successor) *)
        None
      else if Link.v_same (O.Ptr.view lhead) ltail_v then begin
        (* tail is lagging: help and retry.  Its target is the protected
           head, so the expectation names a pinned node. *)
        ignore (O.cas_v g q.tail ~expected:ltail_v ~desired:(O.Ptr.view lnext));
        loop ()
      end
      else if O.unlink_v g q.head lhead ~desired:(O.Ptr.view lnext) then
        item_of (O.Ptr.node_exn lnext)
      else begin
        Backoff.once backoff;
        loop ()
      end
    in
    loop ()

  (* Quiesced teardown: whatever the roots still reach — the sentinel
     and every queued node — is freed (orc: by the cascade). *)
  let destroy q = O.release_roots q.orc [ q.head; q.tail ]
  let unreclaimed q = O.unreclaimed q.orc
  let flush q = O.flush q.orc
  let alloc q = q.alloc
end

module Make (V : sig
  type t
end) =
  Impl (V) (Orc_core.Orc.Make (Node (V)))
