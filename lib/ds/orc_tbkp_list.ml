(** Wait-free linked list in the style of Timnat, Braginsky, Kogan &
    Petrank [27] ("TBKP"), with OrcGC.

    Architecture as in the original: per-thread operation descriptors
    with phase numbers; every operation publishes a descriptor and then
    helps all pending operations with lower-or-equal phases, so each
    operation completes within a bounded number of helping rounds.
    Remove ownership is decided by a claim word in the victim node (the
    original's "success bit"): the operation whose tid wins the claim CAS
    is the one that logically deletes the node.

    Simplification relative to the C++ original, documented in DESIGN.md:
    the insert idempotency machinery (the hardest part of TBKP) leans on
    the substrate's ABA-free stamped-word CAS — a window expectation read
    before any interfering change can never succeed afterwards, so a stale
    helper can neither double-insert nor resurrect a removed node; a
    node's marked [next] additionally witnesses "was linked, then
    removed" for late outcome decisions.

    Reclamation-wise: nodes are referenced from the list *and* from
    descriptors, and descriptors are themselves shared objects — the same
    multiple-incoming-references situation as the Kogan-Petrank queue
    that manual schemes cannot reclaim (obstacle 1). *)

open Atomicx

type node = {
  key : int;
  next : node Link.t; (* list linkage (Mark = logically deleted) *)
  ins_claim : int Atomic.t; (* -1 free, -2 linking/linked, -3 neutralized *)
  del_claim : int Atomic.t; (* deleting op's tid; -1 = unclaimed *)
  (* descriptor fields *)
  phase : int;
  pending : bool;
  is_insert : bool;
  success : bool;
  dnode : node Link.t; (* descriptor's node: insert's node / remove's victim *)
  hdr : Memdom.Hdr.t;
}

module N = struct
  type t = node

  let hdr n = n.hdr

  let iter_links n f =
    f n.next;
    f n.dnode
end

module Impl (O : Intf.CORE with type node = node) = struct
  open Intf.Fresh (O)

  type t = {
    head : node;
    tail : node;
    head_root : node Link.t;
    tail_root : node Link.t;
    state : node Link.t array;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = O.name

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let dnode_of n =
    Memdom.Hdr.check_access n.hdr;
    n.dnode

  let mk_node g key next hdr =
    {
      key;
      next = O.new_link_v g next;
      ins_claim = Atomic.make (-1);
      del_claim = Atomic.make (-1);
      phase = -1;
      pending = false;
      is_insert = false;
      success = false;
      dnode = O.new_link_v g Link.v_null;
      hdr;
    }

  let mk_desc ?(key = 0) ~phase ~pending ~is_insert ~success ~node g hdr =
    {
      key;
      next = O.new_link_v g Link.v_null;
      ins_claim = Atomic.make (-1);
      del_claim = Atomic.make (-1);
      phase;
      pending;
      is_insert;
      success;
      dnode = O.new_link_v g node;
      hdr;
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("tbkp_list/" ^ O.name) in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let tail =
          alloc_into g (O.ptr g) (mk_node g max_int Link.v_null)
        in
        let head =
          alloc_into g (O.ptr g)
            (mk_node g min_int (O.v_ptr orc tail))
        in
        let dp = O.ptr g in
        let state =
          Array.init Registry.max_threads (fun _ ->
              let d =
                alloc_into g dp
                  (mk_desc ~phase:(-1) ~pending:false ~is_insert:true
                     ~success:false ~node:Link.v_null g)
              in
              O.new_link_v g (O.v_ptr orc d))
        in
        {
          head;
          tail;
          head_root = O.new_link_v g (O.v_ptr orc head);
          tail_root = O.new_link_v g (O.v_ptr orc tail);
          state;
          orc;
          alloc;
        })

  type cursor = {
    prev : O.Ptr.t;
    curr : O.Ptr.t;
    next : O.Ptr.t;
    sp : O.Ptr.t; (* descriptor *)
    dn : O.Ptr.t; (* descriptor's node *)
    dp : O.Ptr.t; (* fresh descriptors *)
    own : O.Ptr.t; (* a node's own next *)
  }

  let cursor g =
    {
      prev = O.ptr g;
      curr = O.ptr g;
      next = O.ptr g;
      sp = O.ptr g;
      dn = O.ptr g;
      dp = O.ptr g;
      own = O.ptr g;
    }

  (* Michael-style find (unlinks marked nodes); on return cu.curr is the
     first node with key >= [key] and the returned link is the
     predecessor link holding [Ptr.view cu.curr]. *)
  let rec find t g key cu =
    O.load g t.head.next cu.curr;
    find_from t g key cu t.head.next

  and find_from t g key cu prev_link =
    let c = O.Ptr.node_exn cu.curr in
    O.load g (next_of c) cu.next;
    if not (Link.view_eq (Link.view prev_link) (O.Ptr.view cu.curr)) then
      find t g key cu
    else if O.Ptr.is_marked cu.next then begin
      let unmarked =
        Link.v_after (O.Ptr.view cu.curr) (Link.v_clean (O.Ptr.view cu.next))
      in
      if O.cas_v g prev_link ~expected:(O.Ptr.view cu.curr) ~desired:unmarked
      then begin
        O.assign g cu.curr cu.next;
        O.Ptr.retag_v cu.curr unmarked;
        find_from t g key cu prev_link
      end
      else find t g key cu
    end
    else if key_of c >= key then prev_link
    else begin
      O.advance g cu.prev cu.curr cu.next;
      find_from t g key cu (next_of c)
    end

  (* After a [find]: does cu.curr carry [key]? *)
  let found cu key = key_of (O.Ptr.node_exn cu.curr) = key

  (* Every [state] slot holds a descriptor while the list lives. *)
  let max_phase t g cu =
    let m = ref (-1) in
    for i = 0 to Registry.high_water () - 1 do
      O.load g t.state.(i) cu.sp;
      let ph = (O.Ptr.node_exn cu.sp).phase in
      if ph > !m then m := ph
    done;
    !m

  (* Replace thread [i]'s descriptor [d], held in cu.sp, by a copy in
     the given state. *)
  let replace t g cu i d ~pending ~success ~node =
    let nd =
      alloc_into g cu.dp
        (mk_desc ~key:d.key ~phase:d.phase ~pending ~is_insert:d.is_insert
           ~success ~node g)
    in
    ignore
      (O.cas_v g t.state.(i) ~expected:(O.Ptr.view cu.sp)
         ~desired:(O.v_ptr t.orc nd))

  (* ... by a completed one. *)
  let complete t g cu i ~success =
    let d = O.Ptr.node_exn cu.sp in
    O.load g (dnode_of d) cu.dn;
    replace t g cu i d ~pending:false ~success ~node:(O.Ptr.view cu.dn)

  let still_pending t g cu i ph =
    O.load g t.state.(i) cu.sp;
    let d = O.Ptr.node_exn cu.sp in
    d.pending && d.phase <= ph

  (* Insert helping.  The physical link and the logical completion live
     in different words, so a stale helper could link the node after
     another helper already completed the operation as a failure.  The
     [ins_claim] word closes that race: a link attempt may only be made
     while holding the claim (-1 -> -2, released on a failed attempt,
     kept forever once linked), and completing with failure requires
     first neutralizing the node (-1 -> -3).  A helper that finds the
     claim held simply retries — this degrades a stalled insert's
     progress from wait-free to lock-free, a documented deviation
     (DESIGN.md); the original achieves full wait-freedom with
     descriptor-wrapped links. *)
  let help_insert t g cu i ph =
    let rec attempt () =
      (* cu.sp holds i's descriptor, which always names its node *)
      if still_pending t g cu i ph then begin
        let d = O.Ptr.node_exn cu.sp in
        O.load g (dnode_of d) cu.dn;
        let node = O.Ptr.node_exn cu.dn in
        let prev_link = find t g node.key cu in
        let was_linked_then_removed () =
          Link.v_is_marked (Link.view (next_of node))
        in
        let complete_false () =
          if
            Atomic.compare_and_set node.ins_claim (-1) (-3)
            || Atomic.get node.ins_claim = -3
          then complete t g cu i ~success:false
          else attempt () (* a link attempt is in flight: re-examine *)
        in
        if found cu node.key then begin
          if O.Ptr.node_exn cu.curr == node then complete t g cu i ~success:true
          else if was_linked_then_removed () then
            complete t g cu i ~success:true
          else complete_false ()
        end
        else if was_linked_then_removed () then complete t g cu i ~success:true
        else if Atomic.get node.ins_claim = -3 then
          complete t g cu i ~success:false
        else if not (Atomic.compare_and_set node.ins_claim (-1) (-2)) then
          attempt () (* claim held or neutralized: re-examine *)
        else begin
          (* we hold the claim: point the node at the window's
             successor, then link *)
          O.load g (next_of node) cu.own;
          if O.Ptr.is_marked cu.own then complete t g cu i ~success:true
          else begin
            let own = O.Ptr.view cu.own and curr = O.Ptr.view cu.curr in
            let ok =
              Link.v_has_target curr
              && (Link.v_same own curr
                 || O.cas_v g (next_of node) ~expected:own ~desired:curr)
            in
            if
              ok
              && O.cas_v g prev_link ~expected:curr ~desired:(O.Ptr.view cu.dn)
            then complete t g cu i ~success:true (* claim kept: linked *)
            else begin
              ignore (Atomic.compare_and_set node.ins_claim (-2) (-1));
              attempt ()
            end
          end
        end
      end
    in
    attempt ()

  let help_remove t g cu i ph =
    let rec attempt () =
      if still_pending t g cu i ph then begin
        let d = O.Ptr.node_exn cu.sp in
        O.load g (dnode_of d) cu.dn;
        if not (Link.v_has_target (O.Ptr.view cu.dn)) then begin
          (* No victim recorded yet: search for one.  Recording goes
             through the state CAS so that it serializes against any
             concurrent failure completion — a mutable field inside
             the descriptor would let a stale "not found" view win
             after a victim was already claimed. *)
          ignore (find t g d.key cu);
          if not (found cu d.key) then complete t g cu i ~success:false
          else begin
            replace t g cu i d ~pending:true ~success:false
              ~node:(O.Ptr.view cu.curr);
            attempt ()
          end
        end
        else begin
          let victim = O.Ptr.node_exn cu.dn in
          (* decide ownership of this victim *)
          ignore (Atomic.compare_and_set victim.del_claim (-1) i);
          if Atomic.get victim.del_claim = i then begin
            (* we own the deletion: mark, unlink, report success *)
            let rec mark () =
              O.load g (next_of victim) cu.own;
              if not (O.Ptr.is_marked cu.own) then begin
                let ov = O.Ptr.view cu.own in
                (* a null own link would be the tail sentinel: impossible *)
                if
                  Link.v_has_target ov
                  && not
                       (O.cas_v g (next_of victim) ~expected:ov
                          ~desired:(Link.v_mark ov))
                then mark ()
              end
            in
            mark ();
            ignore (find t g victim.key cu) (* physical unlink *);
            complete t g cu i ~success:true
          end
          else begin
            (* lost the claim: forget this victim and retry *)
            replace t g cu i d ~pending:true ~success:false ~node:Link.v_null;
            attempt ()
          end
        end
      end
    in
    attempt ()

  let help t g cu ph =
    for i = 0 to Registry.high_water () - 1 do
      O.load g t.state.(i) cu.sp;
      let d = O.Ptr.node_exn cu.sp in
      if d.pending && d.phase <= ph then
        if d.is_insert then help_insert t g cu i ph
        else help_remove t g cu i ph
    done

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Orc_tbkp_list: key out of range"

  (* A completion CAS can lose to a descriptor replacement (e.g. the
     lost-claim retry path), so the operation keeps helping its own
     descriptor until it is no longer pending. *)
  let outcome t g cu tid ph =
    let rec finish () =
      O.load g t.state.(tid) cu.sp;
      let d = O.Ptr.node_exn cu.sp in
      if d.pending then begin
        if d.is_insert then help_insert t g cu tid ph
        else help_remove t g cu tid ph;
        finish ()
      end
      else d.success
    in
    finish ()

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let tid = Registry.tid () in
    let cu = cursor g in
    let ph = max_phase t g cu + 1 in
    let np = O.ptr g in
    ignore (alloc_into g np (mk_node g key Link.v_null));
    ignore
      (alloc_into g cu.dp
         (mk_desc ~phase:ph ~pending:true ~is_insert:true ~success:false
            ~node:(O.Ptr.view np) g));
    O.store_v g t.state.(tid) (O.Ptr.view cu.dp);
    help t g cu ph;
    outcome t g cu tid ph

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let tid = Registry.tid () in
    let cu = cursor g in
    let ph = max_phase t g cu + 1 in
    ignore
      (alloc_into g cu.dp
         (mk_desc ~key ~phase:ph ~pending:true ~is_insert:false ~success:false
            ~node:Link.v_null g));
    O.store_v g t.state.(tid) (O.Ptr.view cu.dp);
    help t g cu ph;
    outcome t g cu tid ph

  (* Wait-free lookup, straight through marked nodes (as in the
     original, whose contains never helps or restarts).  The walk is
     top-level and the body runs under [O.with_guard2], so a lookup
     allocates nothing. *)
  let rec lookup g key ~curr ~next =
    let c = O.Ptr.node_exn curr in
    if key_of c > key then false
    else begin
      O.load g (next_of c) next;
      if key_of c = key then not (O.Ptr.is_marked next)
      else begin
        O.assign g curr next;
        lookup g key ~curr ~next
      end
    end

  let contains_in g t key =
    let curr = O.ptr g and next = O.ptr g in
    O.load g t.head_root curr;
    lookup g key ~curr ~next

  let contains t key =
    check_key key;
    O.with_guard2 t.orc contains_in t key

  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get (next_of n)) with
      | None -> List.rev acc
      | Some nx ->
          if nx == t.tail then List.rev acc
          else
            let deleted = Link.is_marked (Link.get (next_of nx)) in
            walk (if deleted then acc else key_of nx :: acc) nx
    in
    walk [] t.head

  let size t = List.length (to_list t)

  let destroy t =
    O.release_roots t.orc (t.head_root :: t.tail_root :: Array.to_list t.state)

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end

module Make () = Impl (Orc_core.Orc.Make (N))
