(** Turn queue — wait-free MPMC queue in the style of Ramalhete &
    Correia's PPoPP'17 poster [26], with OrcGC.

    Only the poster abstract of the original is published, so this is a
    *reconstruction* that preserves its defining properties (documented
    in DESIGN.md): wait-free progress through bounded, turn-ordered
    helping.

    Enqueue: requests live in a per-thread [enqueuers] array and are
    served round-robin starting after the current tail's enqueuer; the
    tail's own request is cleared once its node reaches the tail.

    Dequeue: a thread announces a request by republishing its previous
    grant as a token ([deqself[i]] and [deqhelp[i]] holding the same node
    means "open") and spins helping until [deqhelp[i]] changes.  Serving
    the head transition [h -> n] is a three-step protocol: (1) claim —
    CAS the token of the turn-chosen open request into [n]'s claim link;
    (2) deliver — CAS that requester's [deqhelp] from the token to [n];
    (3) advance the head once delivery is visible.  A claim whose token
    was meanwhile served by the empty-queue path (the only server that
    bypasses head transitions) is released again; the head is
    re-validated *after* reading the grant state, which confines every
    stale-helper CAS to failure by the links' write stamps.

    Reclamation-wise this is another obstacle-1 structure: queue nodes
    are referenced from [head]/[tail], three request arrays *and* claim
    links, with unlink order depending on helping interleavings — per
    the paper only OrcGC (or FreeAccess) can reclaim it, and here the
    annotations are again the only change. *)

open Atomicx

module Node (V : sig
  type t
end) =
struct
  type t = {
    item : V.t option;
    enq_tid : int;
    mutable req_tid : int; (* set by the owner before the token is shared *)
    claim : t Link.t; (* token of the request this node is delivered to *)
    next : t Link.t;
    hdr : Memdom.Hdr.t;
  }

  let hdr n = n.hdr

  let iter_links n f =
    f n.next;
    f n.claim
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
    enqueuers : Nd.t Link.t array; (* pending enqueue requests *)
    deqself : Nd.t Link.t array; (* request tokens *)
    deqhelp : Nd.t Link.t array; (* grants *)
    deq_turn : int Atomic.t; (* fairness anchor for dequeue service *)
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = O.name

  let item_of n =
    Memdom.Hdr.check_access n.hdr;
    n.item

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let claim_of n =
    Memdom.Hdr.check_access n.hdr;
    n.claim

  let mk_node ?item ?(enq_tid = -1) g hdr =
    {
      item;
      enq_tid;
      req_tid = -1;
      claim = O.new_link_v g Link.v_null;
      next = O.new_link_v g Link.v_null;
      hdr;
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("turn_queue/" ^ O.name) in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let fresh () =
          O.v_ptr orc (alloc_into g (O.ptr g) (mk_node g))
        in
        let sentinel = fresh () and dummy_self = fresh () in
        let dp = O.ptr g in
        {
          head = O.new_link_v g sentinel;
          tail = O.new_link_v g sentinel;
          enqueuers =
            Array.init Registry.max_threads (fun _ ->
                O.new_link_v g Link.v_null);
          deqself =
            Array.init Registry.max_threads (fun _ ->
                O.new_link_v g dummy_self);
          deqhelp =
            Array.init Registry.max_threads (fun i ->
                (* per-thread dummies: tokens must be unique per owner *)
                let d = alloc_into g dp (mk_node g) in
                d.req_tid <- i;
                O.new_link_v g (O.v_ptr orc d));
          deq_turn = Atomic.make 0;
          orc;
          alloc;
        })

  (* Does the handle hold a node, and does it hold [n]? *)
  let held p = Link.v_has_target (O.Ptr.view p)
  let holds p n = held p && O.Ptr.node_exn p == n

  (* One enqueue help round: complete the tail's request, link the next
     request in turn order, advance the tail. *)
  let enq_round q g ~ltail ~lnext ~req =
    O.load g q.tail ltail;
    let lt = O.Ptr.node_exn ltail in
    (* clear the request of the enqueuer whose node is now the tail *)
    let et = lt.enq_tid in
    if et >= 0 then begin
      O.load g q.enqueuers.(et) req;
      if holds req lt then
        ignore
          (O.cas_v g q.enqueuers.(et) ~expected:(O.Ptr.view req)
             ~desired:Link.v_null)
    end;
    (* serve the next pending request, round-robin after [et] *)
    let hw = Registry.high_water () in
    (try
       for j = 1 to hw do
         let i = (et + j + hw) mod hw in
         O.load g q.enqueuers.(i) req;
         if held req then begin
           ignore
             (O.cas_v g (next_of lt) ~expected:Link.v_null
                ~desired:(O.Ptr.view req));
           raise_notrace Exit
         end
       done
     with Exit -> ());
    (* advance the tail over whatever is linked *)
    O.load g (next_of lt) lnext;
    if held lnext then
      ignore
        (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
           ~desired:(O.Ptr.view lnext))

  let enqueue q v =
    O.with_guard q.orc @@ fun g ->
    let tid = Registry.tid () in
    let np = O.ptr g in
    ignore (alloc_into g np (mk_node ~item:v ~enq_tid:tid g));
    let my = O.Ptr.view np in
    O.store_v g q.enqueuers.(tid) my;
    let ltail = O.ptr g and lnext = O.ptr g and req = O.ptr g in
    (* [np] keeps [my]'s slot from being re-issued, so an equal target
       word names [my] *)
    let pending () = Link.v_same (Link.view q.enqueuers.(tid)) my in
    while pending () do
      enq_round q g ~ltail ~lnext ~req
    done

  (* First open dequeue request in turn order; [tok]/[grant] hold its
     deqself/deqhelp states on success. *)
  let pick_open q g ~tok ~grant =
    let hw = Registry.high_water () in
    let anchor = Atomic.get q.deq_turn in
    let chosen = ref (-1) in
    (try
       for j = 1 to hw do
         let i = (anchor + j) mod hw in
         O.load g q.deqself.(i) tok;
         O.load g q.deqhelp.(i) grant;
         if held tok && Link.v_same (O.Ptr.view tok) (O.Ptr.view grant)
         then begin
           chosen := i;
           raise_notrace Exit
         end
       done
     with Exit -> ());
    (anchor, !chosen)

  let bump_turn q anchor w = ignore (Atomic.compare_and_set q.deq_turn anchor w)

  (* One dequeue help round. *)
  let deq_round q g ~lhead ~ltail ~lnext ~tok ~grant ~claimp ~ep =
    O.load g q.head lhead;
    O.load g q.tail ltail;
    let h = O.Ptr.node_exn lhead in
    O.load g (next_of h) lnext;
    let empty_or_lagging =
      Link.v_same (O.Ptr.view lhead) (O.Ptr.view ltail)
    in
    if empty_or_lagging && not (held lnext) then begin
      (* empty: serve one open request with a fresh empty marker *)
      let anchor, r = pick_open q g ~tok ~grant in
      if r >= 0 then begin
        ignore (alloc_into g ep (mk_node g));
        if
          O.cas_v g q.deqhelp.(r) ~expected:(O.Ptr.view grant)
            ~desired:(O.Ptr.view ep)
        then bump_turn q anchor r
      end
    end
    else if empty_or_lagging then
      (* an enqueue is in flight: help the tail forward *)
      ignore
        (O.cas_v g q.tail ~expected:(O.Ptr.view ltail)
           ~desired:(O.Ptr.view lnext))
    else begin
      let nx = O.Ptr.node_exn lnext in
      (* (1) ensure the node is claimed by some request's token.  Claims
         are only meaningful while [h] is still the head: a claim
         installed after the transition completed would chain (and can
         even cycle, via the queue's own next links) delivered nodes
         together, which reference counting cannot collect — so validate
         the head before claiming, and clean up a claim that is observed
         to have landed after the head moved. *)
      O.load g (claim_of nx) claimp;
      if
        (not (held claimp))
        && Link.view_eq (Link.view q.head) (O.Ptr.view lhead)
      then begin
        let anchor, r = pick_open q g ~tok ~grant in
        if r >= 0 then begin
          ignore anchor;
          if held tok then
            ignore
              (O.cas_v g (claim_of nx) ~expected:(O.Ptr.view claimp)
                 ~desired:(O.Ptr.view tok))
        end;
        O.load g (claim_of nx) claimp
      end;
      if
        held claimp
        && not (Link.view_eq (Link.view q.head) (O.Ptr.view lhead))
      then begin
        (* the transition completed under us: any claim left on [nx] is
           garbage now; remove it (whoever installed it) *)
        ignore
          (O.cas_v g (claim_of nx) ~expected:(O.Ptr.view claimp)
             ~desired:Link.v_null)
      end
      else if held claimp then begin
        let tstar = O.Ptr.node_exn claimp in
        let w = tstar.req_tid in
        if w >= 0 then begin
          O.load g q.deqhelp.(w) grant;
          (* re-validate the transition only after reading the grant:
             any serve-elsewhere forces a head move first, so a stale
             view cannot reach the release branch wrongly *)
          if Link.view_eq (Link.view q.head) (O.Ptr.view lhead) then begin
            if holds grant tstar then begin
              (* (2) deliver the node to the claimed request *)
              if
                O.cas_v g q.deqhelp.(w) ~expected:(O.Ptr.view grant)
                  ~desired:(O.Ptr.view lnext)
              then bump_turn q (Atomic.get q.deq_turn) w;
              (* (3) advance once delivery is visible; the advance
                 winner also clears the claim link, which would
                 otherwise chain every delivered node to its
                 recipient's previous token forever *)
              O.load g q.deqhelp.(w) grant;
              if
                holds grant nx
                && O.cas_v g q.head ~expected:(O.Ptr.view lhead)
                     ~desired:(O.Ptr.view lnext)
              then O.store_v g (claim_of nx) Link.v_null
            end
            else if holds grant nx then begin
              (* already delivered: advance *)
              if
                O.cas_v g q.head ~expected:(O.Ptr.view lhead)
                  ~desired:(O.Ptr.view lnext)
              then O.store_v g (claim_of nx) Link.v_null
            end
            else
              (* the claimed token was served by the empty path:
                 release the claim so the item can be re-served *)
              ignore
                (O.cas_v g (claim_of nx) ~expected:(O.Ptr.view claimp)
                   ~desired:Link.v_null)
          end
        end
      end
    (* else no open requests: leave the item queued *)
    end

  let dequeue q =
    O.with_guard q.orc @@ fun g ->
    let tid = Registry.tid () in
    let tok = O.ptr g and grant = O.ptr g in
    (* open my request: republish the previous grant as the token *)
    O.load g q.deqhelp.(tid) grant;
    (O.Ptr.node_exn grant).req_tid <- tid;
    let token_v = O.Ptr.view grant in
    O.store_v g q.deqself.(tid) token_v;
    let lhead = O.ptr g and ltail = O.ptr g and lnext = O.ptr g in
    let claimp = O.ptr g and ep = O.ptr g in
    (* [deqself] holds the token, so its slot is not re-issued while we
       wait: a different target word is a grant *)
    let served () =
      let v = Link.view q.deqhelp.(tid) in
      Link.v_has_target v && not (Link.v_same v token_v)
    in
    while not (served ()) do
      deq_round q g ~lhead ~ltail ~lnext ~tok ~grant ~claimp ~ep
    done;
    O.load g q.deqhelp.(tid) grant;
    item_of (O.Ptr.node_exn grant)

  let destroy q =
    O.release_roots q.orc
      (q.head :: q.tail
      :: List.concat_map Array.to_list [ q.enqueuers; q.deqself; q.deqhelp ])

  let unreclaimed q = O.unreclaimed q.orc
  let flush q = O.flush q.orc
  let alloc q = q.alloc
end

module Make (V : sig
  type t
end) =
  Impl (V) (Orc_core.Orc.Make (Node (V)))
