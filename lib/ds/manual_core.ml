(** {!Intf.CORE} over a manual reclamation scheme: the adapter that
    lets one set algorithm, written against [CORE], run over hazard
    pointers, pass-the-buck, pass-the-pointer, EBR, HE or IBR.

    A handle is a (view, hazard index) pair; its node is decoded from
    the view on demand, so every handle write is an immediate store
    with no write barrier.  A guard hands out the indexes 0, 1, 2, ...
    in [ptr] order, one per handle, so a structure that holds four
    handles needs a scheme created with [max_hps >= 4].  [load] is the
    scheme's [get_protected_v] into the handle's own index, [assign] is
    [copy_protection], and [advance] permutes the three pairs as
    [Orc.advance] permutes its triples: every slot keeps publishing
    what it did, so a traversal hop costs one protect and no copy.
    [retire] and [unlink_v] hand the unlinked node to [S.retire],
    [retire_region] poisons and retires an excised region, and
    [discard] frees a node that was never published. *)

open Atomicx

module Make (R : Reclaim.Scheme_intf.MAKER) (N : Orc_core.Orc.NODE) = struct
  module S = R (N)

  type node = N.t
  type t = { s : S.t; alloc : Memdom.Alloc.t; arena : node Link.arena }
  type guard = { c : t; tid : int; mutable next_idx : int }

  type ptr = {
    mutable v : node Link.view;
    mutable idx : int;
    a : node Link.arena;
  }

  let name = S.name

  let create ?max_hps ?sink alloc =
    {
      s = S.create ?max_hps ?sink alloc;
      alloc;
      arena = Memdom.Handle.arena ~hdr:N.hdr ();
    }

  module Ptr = struct
    type t = ptr

    let view p = p.v
    let is_marked p = Link.v_is_marked p.v

    (* the target is protected, so its arena slot still names it *)
    let node_exn p =
      if Link.v_has_target p.v then Link.v_node p.a p.v
      else invalid_arg "Manual_core.Ptr.node_exn: null"

    let retag_v p v' =
      if Link.v_same (Link.v_clean v') (Link.v_clean p.v) then p.v <- v'
      else invalid_arg "Manual_core.Ptr.retag_v: different target"
  end

  (* [end_op] clears every protection, on the exception path too *)
  let with_guard t f =
    let tid = Registry.tid () in
    S.begin_op t.s ~tid;
    match f { c = t; tid; next_idx = 0 } with
    | r ->
        S.end_op t.s ~tid;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        S.end_op t.s ~tid;
        Printexc.raise_with_backtrace e bt

  let ptr g =
    let idx = g.next_idx in
    if idx >= S.max_hps g.c.s then
      invalid_arg "Manual_core.ptr: more handles than hazard indexes";
    g.next_idx <- idx + 1;
    { v = Link.v_null; idx; a = g.c.arena }

  let load g link p = p.v <- S.get_protected_v g.c.s ~tid:g.tid ~idx:p.idx link

  let assign g dst src =
    if dst != src then begin
      S.copy_protection g.c.s ~tid:g.tid ~src:src.idx ~dst:dst.idx;
      dst.v <- src.v
    end

  (* prev <- curr <- next <- prev, views and indexes alike (see
     [Orc.advance]): afterwards [next] names prev's old target, still
     protected in the slot it came with, until the next [load] into
     [next]. *)
  let advance _ prev curr next =
    if prev == curr || curr == next || prev == next then
      invalid_arg "Manual_core.advance: handles must be distinct";
    let v = prev.v and idx = prev.idx in
    prev.v <- curr.v;
    prev.idx <- curr.idx;
    curr.v <- next.v;
    curr.idx <- next.idx;
    next.v <- v;
    next.idx <- idx

  let v_ptr t n = Link.v_ptr_in t.arena n

  let alloc_node_into g p mk =
    let hdr = Memdom.Alloc.hdr g.c.alloc () in
    let n =
      match mk hdr with
      | n -> n
      | exception e ->
          Memdom.Alloc.free g.c.alloc hdr;
          raise e
    in
    (* returned protected, as under orc: an [Impl] may still use the
       node after publishing it, when another thread can retire it *)
    S.protect_raw g.c.s ~tid:g.tid ~idx:p.idx (Some n);
    p.v <- v_ptr g.c n;
    n

  let new_link_v g v = Link.make_of_view g.c.arena v
  let store_v _ link v = Link.set_v link v
  let cas_v _ link ~expected ~desired = Link.cas_v link expected desired
  let retire g p = S.retire g.c.s ~tid:g.tid (Ptr.node_exn p)
  let discard g n = Memdom.Alloc.free g.c.alloc (N.hdr n)

  let unlink_v g link victim ~desired =
    Link.cas_v link victim.v desired
    && begin
         retire g victim;
         victim.v <- Link.v_null;
         true
       end

  (* The region is frozen (every edge flagged or tagged) and bounded by
     the number of concurrent deletes.  The survivor is recognised by
     its arena slot, never dereferenced: the caller need not protect
     it, and once linked under the CAS's link a concurrent delete may
     free it and its slot be re-issued while the region is collected.
     Every other
     region edge targets a region node, which stays allocated until
     this call retires it, so no region node can hold the survivor's
     slot.  The edges are poisoned before any node is retired, so a
     traversal inside the region fails its next protection step. *)
  let retire_region g root ~keep =
    let survivor = Link.v_clean keep and nodes = ref [] in
    let rec collect x =
      N.iter_links x (fun l ->
          let v = Link.view l in
          if Link.v_has_target v && not (Link.v_same (Link.v_clean v) survivor)
          then collect (Link.v_node g.c.arena v));
      nodes := x :: !nodes
    in
    collect (Ptr.node_exn root);
    List.iter
      (fun n -> N.iter_links n (fun l -> Link.set_v l Link.v_poison))
      !nodes;
    List.iter (fun n -> S.retire g.c.s ~tid:g.tid n) !nodes

  (* Collect every node reachable from the roots (once each, by uid)
     before freeing any, so no link is decoded after its target's slot
     is released; then null the roots and drain what was retired. *)
  let release_roots t roots =
    let seen = Hashtbl.create 64 and stack = ref [] in
    let visit link =
      let v = Link.view link in
      if Link.v_has_target v then begin
        let n = Link.v_target_exn link v in
        let uid = (N.hdr n).Memdom.Hdr.uid in
        if not (Hashtbl.mem seen uid) then begin
          Hashtbl.add seen uid ();
          stack := n :: !stack
        end
      end
    in
    List.iter visit roots;
    let rec walk acc =
      match !stack with
      | [] -> acc
      | n :: rest ->
          stack := rest;
          N.iter_links n visit;
          walk (n :: acc)
    in
    List.iter (fun n -> Memdom.Alloc.free t.alloc (N.hdr n)) (walk []);
    List.iter (fun r -> Link.set_v r Link.v_null) roots;
    S.flush t.s

  let unreclaimed t = S.unreclaimed t.s
  let flush t = S.flush t.s
  let tuning t = S.tuning t.s
  let set_tuning t tn = S.set_tuning t.s tn
  let stats t = S.stats t.s
end
