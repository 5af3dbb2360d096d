(** {!Intf.CORE} over a manual reclamation scheme: the adapter that
    lets one set algorithm, written against [CORE], run over hazard
    pointers, pass-the-buck, pass-the-pointer, EBR, HE or IBR.

    A handle is a (view, hazard index) pair; its node is decoded from
    the view on demand, so every handle write is an immediate store
    with no write barrier.  Guards and handles live in per-tid frames
    that each tid allocates on its first guard, so an operation
    allocates neither.  A tid's handles take the indexes 0, 1, 2, ...
    in [ptr] order, one per handle, so a structure that holds four
    handles needs a scheme created with [max_hps >= 4].  Guards nest:
    an inner guard's handles take the indexes after the outer guard's,
    only the outermost guard runs [begin_op]/[end_op], and an inner
    guard's exit clears only its own indexes.  [load] is the
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

  type t = {
    s : S.t;
    alloc : Memdom.Alloc.t;
    arena : node Link.arena;
    (* per tid: its guards and handles, allocated by that tid on its
       first guard *)
    frames : (t, node) Orc_core.Frame.t option array;
    (* strong reference keeping the weakly-registered quarantine
       cleaner alive exactly as long as this core *)
    mutable lifecycle : int -> unit;
  }

  type guard = (t, node) Orc_core.Frame.guard
  type ptr = node Orc_core.Frame.handle

  let name = S.name

  let create ?max_hps ?sink alloc =
    let t =
      {
        s = S.create ?max_hps ?sink alloc;
        alloc;
        arena = Memdom.Handle.arena ~hdr:N.hdr ();
        frames = Array.make Registry.max_threads None;
        lifecycle = ignore;
      }
    in
    (* a departing tid's frame goes: the next owner allocates its own *)
    t.lifecycle <- (fun tid -> t.frames.(tid) <- None);
    Registry.on_quarantine t.lifecycle;
    t

  module Ptr = struct
    type t = ptr

    let view (p : t) = p.v
    let is_marked (p : t) = Link.v_is_marked p.v

    (* the target is protected, so its arena slot still names it *)
    let node_exn (p : t) =
      if Link.v_has_target p.v then Link.v_node p.arena p.v
      else invalid_arg "Manual_core.Ptr.node_exn: null"

    let retag_v (p : t) v' =
      if Link.v_same (Link.v_clean v') (Link.v_clean p.v) then p.v <- v'
      else invalid_arg "Manual_core.Ptr.retag_v: different target"
  end

  (* The outermost guard's [end_op] clears every protection; an inner
     guard clears its own indexes, newest first. *)
  let exit_guard (g : guard) =
    let t = g.core and tid = g.tid in
    if g.level = 0 then S.end_op t.s ~tid
    else
      for idx = g.frame.top - 1 downto g.base do
        S.clear t.s ~tid ~idx
      done;
    Orc_core.Frame.close g

  (* Only the outermost guard runs [begin_op]: a nested one would, under
     EBR, re-announce an epoch beneath the outer guard's protections. *)
  let with_guard2 t f a b =
    let tid = Registry.tid () in
    let g =
      Orc_core.Frame.enter t.frames ~core:t ~arena:t.arena
        ~handles:(S.max_hps t.s) ~tid ~gen:0
    in
    if g.level = 0 then S.begin_op t.s ~tid;
    Orc_core.Frame.run g exit_guard f a b

  let apply g f () = f g
  let with_guard t f = with_guard2 t apply f ()

  (* A handle of the innermost open guard, at the next hazard index. *)
  let ptr (g : guard) =
    let idx = g.frame.top in
    if idx >= S.max_hps g.core.s then
      invalid_arg "Manual_core.ptr: more handles than hazard indexes";
    let p = Orc_core.Frame.handle g in
    (* [advance] may have permuted the indexes among the handles *)
    p.idx <- idx;
    p

  let load (g : guard) link (p : ptr) =
    p.v <- S.get_protected_v g.core.s ~tid:g.tid ~idx:p.idx link

  let assign (g : guard) (dst : ptr) (src : ptr) =
    if dst != src then begin
      S.copy_protection g.core.s ~tid:g.tid ~src:src.idx ~dst:dst.idx;
      dst.v <- src.v
    end

  (* prev <- curr <- next <- prev, views and indexes alike (see
     [Orc.advance]): afterwards [next] names prev's old target, still
     protected in the slot it came with, until the next [load] into
     [next]. *)
  let advance _ (prev : ptr) (curr : ptr) (next : ptr) =
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

  let alloc_node_into (g : guard) (p : ptr) mk =
    let hdr = Memdom.Alloc.hdr g.core.alloc () in
    let n =
      match mk hdr with
      | n -> n
      | exception e ->
          Memdom.Alloc.free g.core.alloc hdr;
          raise e
    in
    (* returned protected, as under orc: an [Impl] may still use the
       node after publishing it, when another thread can retire it *)
    S.protect_raw g.core.s ~tid:g.tid ~idx:p.idx (Some n);
    p.v <- v_ptr g.core n;
    n

  let new_link_v (g : guard) v = Link.make_of_view g.core.arena v
  let store_v _ link v = Link.set_v link v
  let cas_v _ link ~expected ~desired = Link.cas_v link expected desired
  let retire (g : guard) p = S.retire g.core.s ~tid:g.tid (Ptr.node_exn p)
  let discard (g : guard) n = Memdom.Alloc.free g.core.alloc (N.hdr n)

  let unlink_v (g : guard) link (victim : ptr) ~desired =
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
  let retire_region (g : guard) root ~keep =
    let survivor = Link.v_clean keep and nodes = ref [] in
    let rec collect x =
      N.iter_links x (fun l ->
          let v = Link.view l in
          if Link.v_has_target v && not (Link.v_same (Link.v_clean v) survivor)
          then collect (Link.v_node g.core.arena v));
      nodes := x :: !nodes
    in
    collect (Ptr.node_exn root);
    List.iter
      (fun n -> N.iter_links n (fun l -> Link.set_v l Link.v_poison))
      !nodes;
    List.iter (fun n -> S.retire g.core.s ~tid:g.tid n) !nodes

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
