(** Harris's original lock-free linked list [12], over an automatic
    core.

    This is the paper's obstacle-2 example (§2): searches traverse
    *through* marked (logically deleted) nodes and a whole chain of
    marked nodes is excised with a single CAS, so no thread can tell when
    an individual node becomes unreachable — manual schemes cannot place
    a retire call, and integrating HP-family schemes loses correctness.
    With OrcGC the chain-excision CAS drops the first chain node's count
    and the destructor cascade walks the chain down, reclaiming each node
    as its protections expire.  No algorithmic modification is made.

    The node is the Michael list's, so the sentinels, [create], the
    teardown and [to_list] are {!Orc_michael_list.Impl}'s; this module
    adds the chain-excising search and the [add], [remove] and
    [contains] that run it. *)

open Atomicx
open Orc_michael_list

module Impl (O : Intf.CORE with type node = node) = struct
  include Orc_michael_list.Impl (O)

  let right_marked right =
    Link.v_is_marked (Link.view (next_of (O.Ptr.node_exn right)))

  (* Harris search: find adjacent (left, right) with left.ord < key <=
     right.ord and right unmarked, excising any marked chain in between
     with one CAS.  [right] plays Harris's cursor t and [tnext] holds
     the word read from t.next; [left_link] is the last unmarked link
     passed (the anchor, or [left]'s node's next) and [left_next] the
     word read from it.  On return [right] holds the word installed in
     the returned link, ready as a CAS expectation.  The cursor walks
     *through* marked nodes — the behaviour that breaks manual schemes
     and that OrcGC supports unchanged.  Every step is a top-level
     function taking its state as arguments, so a search builds no
     closure and returns no tuple.  The tail's [next] is null, which
     reads as unmarked, and its [ord] is [max_int], so a walk stops
     there. *)
  let rec search g anchor key ~left ~right ~tnext =
    O.load g anchor right;
    walk g anchor key ~left ~right ~tnext anchor (O.Ptr.view right)

  and walk g anchor key ~left ~right ~tnext left_link left_next =
    let u = O.Ptr.node_exn right in
    let next = next_of u in
    O.load g next tnext;
    if O.Ptr.is_marked tnext then begin
      (* u is logically deleted: step over it, [left] stays *)
      O.assign g right tnext;
      walk g anchor key ~left ~right ~tnext left_link left_next
    end
    else if ord_of u < key then begin
      (* left := u, t := u's successor *)
      O.advance g left right tnext;
      walk g anchor key ~left ~right ~tnext next (O.Ptr.view right)
    end
    else settle g anchor key ~left ~right ~tnext left_link left_next

  and settle g anchor key ~left ~right ~tnext left_link left_next =
    let right_v = Link.v_clean (O.Ptr.view right) in
    if Link.v_same left_next right_v then
      (* adjacent already; restart if right got marked meanwhile *)
      if right_marked right then search g anchor key ~left ~right ~tnext
      else left_link
    else begin
      (* excise the marked chain [left_next .. right) in one CAS *)
      let desired = Link.v_after left_next right_v in
      if O.cas_v g left_link ~expected:left_next ~desired then begin
        O.Ptr.retag_v right desired;
        if right_marked right then search g anchor key ~left ~right ~tnext
        else left_link
      end
      else search g anchor key ~left ~right ~tnext
    end

  let at_key right key = ord_of (O.Ptr.node_exn right) = key

  (* Point the private node [n] at right, then CAS it in. *)
  let link_in core g ~right left_link n =
    O.store_v g (next_link n) (O.Ptr.view right);
    O.cas_v g left_link ~expected:(O.Ptr.view right) ~desired:(O.v_ptr core n)

  (* Retry an insert whose CAS lost, with the node already allocated. *)
  let rec insert_node core g anchor key ~left ~right ~tnext n =
    let left_link = search g anchor key ~left ~right ~tnext in
    if at_key right key then begin
      O.discard g n;
      false
    end
    else
      link_in core g ~right left_link n
      || insert_node core g anchor key ~left ~right ~tnext n

  let rec delete g anchor key ~left ~right ~tnext =
    let left_link = search g anchor key ~left ~right ~tnext in
    if not (at_key right key) then false
    else begin
      let r = next_of (O.Ptr.node_exn right) in
      O.load g r tnext;
      let nv = O.Ptr.view tnext in
      if Link.v_is_marked nv then delete g anchor key ~left ~right ~tnext
      else if O.cas_v g r ~expected:nv ~desired:(Link.v_mark nv) then begin
        (* try to unlink right; otherwise a later search excises it *)
        if
          not
            (O.cas_v g left_link ~expected:(O.Ptr.view right)
               ~desired:(Link.v_clean nv))
        then ignore (search g anchor key ~left ~right ~tnext);
        true
      end
      else delete g anchor key ~left ~right ~tnext
    end

  let contains_in g t key =
    let left = O.ptr g and right = O.ptr g and tnext = O.ptr g in
    ignore (search g (anchor t) key ~left ~right ~tnext);
    at_key right key

  let add_in g t key =
    let left = O.ptr g and right = O.ptr g and tnext = O.ptr g in
    let anchor = anchor t in
    let left_link = search g anchor key ~left ~right ~tnext in
    (not (at_key right key))
    &&
    let n = O.alloc_node_into g (O.ptr g) make_node renew_node key in
    link_in (core t) g ~right left_link n
    || insert_node (core t) g anchor key ~left ~right ~tnext n

  let remove_in g t key =
    let left = O.ptr g and right = O.ptr g and tnext = O.ptr g in
    delete g (anchor t) key ~left ~right ~tnext

  let contains t key =
    check_key key;
    O.with_guard2 (core t) contains_in t key

  let add t key =
    check_key key;
    O.with_guard2 (core t) add_in t key

  let remove t key =
    check_key key;
    O.with_guard2 (core t) remove_in t key
end

module Make () = Impl (Orc_core.Orc.Make (N))
