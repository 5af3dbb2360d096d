(** Natarajan & Mittal's lock-free external binary search tree [22],
    written once against {!Intf.CORE}: {!Make} runs it under OrcGC,
    {!Nm_tree.Make} over a manual scheme.

    External tree: internal nodes route, leaves hold the keys.  A delete
    *flags* the edge to the doomed leaf, *tags* the parent's other edge
    to freeze it, then swings the deepest clean ancestor edge directly to
    the surviving sibling — excising the whole frozen path at once.
    Every edge write bumps the link's write stamp, so a stale CAS
    expectation can never succeed, which is what makes overlapping
    cleanups safe (the C++ original gets the same property from its
    flag/tag bits changing the word value).

    Reclamation: the thread whose ancestor CAS wins owns the excised
    region — the path of tagged internal nodes plus their flagged leaf
    children — and hands it to the core's [retire_region]; helped
    deletes hand over nothing.  This is the one place the two families
    differ.  Excision leaves the region's interior edges untouched, so
    under a manual scheme hazard validation alone cannot tell that a
    frozen path has left the tree: [retire_region] poisons the region's
    edges before retiring it, and the seek and the cleanup restart on
    poison.  Under OrcGC [retire_region] does nothing and no edge is
    ever poisoned: a protected node's own hard links pin its
    successors, and the winning CAS's count transfer (inc survivor, dec
    successor) reclaims the region by cascade once its protections
    expire.

    An operation holds at most eight handles: the seek's ancestor,
    successor, parent, leaf and cursor, cleanup's survivor, and the
    leaf and internal node an [add] allocates.  Keys must be
    < [max_int - 2] (the three infinity sentinels). *)

open Atomicx

let inf0 = max_int - 2
let inf1 = max_int - 1
let inf2 = max_int

type node = {
  key : int;
  left : node Link.t; (* [Null] in leaves *)
  right : node Link.t;
  hdr : Memdom.Hdr.t;
}

module N = struct
  type t = node

  let hdr n = n.hdr

  let iter_links n f =
    f n.left;
    f n.right
end

module Impl (O : Intf.CORE with type node = node) = struct
  open Intf.Fresh (O)

  type t = {
    r : node; (* sentinel root, immortal *)
    s : node; (* sentinel child, immortal *)
    r_root : node Link.t;
    s_root : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  (* The seek's window: its five handles and the two edge words it
     read, anc->succ and par->leaf. *)
  type window = {
    anc : O.Ptr.t;
    succ : O.Ptr.t;
    par : O.Ptr.t;
    leaf : O.Ptr.t;
    cur : O.Ptr.t;
    mutable anc_edge : node Link.view;
    mutable par_edge : node Link.view;
  }

  let scheme_name = O.name

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let left_of n =
    Memdom.Hdr.check_access n.hdr;
    n.left

  let right_of n =
    Memdom.Hdr.check_access n.hdr;
    n.right

  (* route: the child edge of internal node [n] for [key] *)
  let child_link n key = if key < key_of n then left_of n else right_of n

  (* an edge holding a plain pointer, no flag/tag bit *)
  let is_clean e = Link.v_has_target e && Link.v_same e (Link.v_clean e)

  let mk_leaf g key hdr =
    {
      key;
      left = O.new_link_v g Link.v_null;
      right = O.new_link_v g Link.v_null;
      hdr;
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("nm_tree/" ^ O.name) in
    let orc = O.create ~max_hps:8 alloc in
    O.with_guard orc (fun g ->
        let node mk = alloc_into g (O.ptr g) mk in
        let internal key l r hdr =
          {
            key;
            left = O.new_link_v g (O.v_ptr orc l);
            right = O.new_link_v g (O.v_ptr orc r);
            hdr;
          }
        in
        let l0 = node (mk_leaf g inf0) in
        let l1 = node (mk_leaf g inf1) in
        let l2 = node (mk_leaf g inf2) in
        let s = node (internal inf1 l0 l1) in
        let r = node (internal inf2 s l2) in
        {
          r;
          s;
          r_root = O.new_link_v g (O.v_ptr orc r);
          s_root = O.new_link_v g (O.v_ptr orc s);
          orc;
          alloc;
        })

  let window g =
    let anc = O.ptr g and succ = O.ptr g and par = O.ptr g in
    let leaf = O.ptr g and cur = O.ptr g in
    { anc; succ; par; leaf; cur; anc_edge = Link.v_null; par_edge = Link.v_null }

  (* Natarajan-Mittal seek: walk down to the leaf for [key], remembering
     the deepest ancestor whose path edge is untagged.  Restarts when it
     steps on a poisoned edge — it has wandered into a region a manual
     scheme is reclaiming (never under orc). *)
  let rec seek t g key w =
    O.load g t.r_root w.anc;
    O.load g t.s_root w.succ;
    O.load g t.s_root w.par;
    w.anc_edge <- Link.view t.r.left (* immortal edge R->S *);
    O.load g t.s.left w.leaf;
    w.par_edge <- O.Ptr.view w.leaf;
    let rec walk () =
      let l = O.Ptr.node_exn w.leaf in
      let probe = Link.view (left_of l) in
      if Link.v_is_poison probe then false
      else if not (Link.v_has_target probe) then true (* l is a leaf *)
      else begin
        (* l is internal: descend by key *)
        O.load g (child_link l key) w.cur;
        if Link.v_is_poison (O.Ptr.view w.cur) then false
        else begin
          if not (Link.v_is_tagged w.par_edge) then begin
            O.assign g w.anc w.par;
            O.assign g w.succ w.leaf;
            w.anc_edge <- w.par_edge
          end;
          O.assign g w.par w.leaf;
          w.par_edge <- O.Ptr.view w.cur;
          O.assign g w.leaf w.cur;
          walk ()
        end
      end
    in
    if not (walk ()) then seek t g key w

  (* cleanup: freeze the parent's sibling edge and swing the ancestor
     edge to the sibling, protected in [wp] before it gains the new
     link; the winner hands the excised region to [retire_region].
     Returns true iff this call's CAS won. *)
  let cleanup g key w wp =
    let par = O.Ptr.node_exn w.par in
    let child_l, sibling_l =
      if key < key_of par then (left_of par, right_of par)
      else (right_of par, left_of par)
    in
    let child_v = Link.view child_l in
    if Link.v_is_poison child_v then false (* region already reclaimed *)
    else begin
      (* if the child edge is not flagged, the flag sits on the other side
         (we are helping a delete whose leaf is our routing sibling) *)
      let sibling_l =
        if Link.v_is_flagged child_v then sibling_l else child_l
      in
      (* tag the sibling edge so it cannot change under us *)
      let rec tag () =
        let s = Link.view sibling_l in
        if Link.v_is_poison s then false
        else if Link.v_is_tagged s then true
        else begin
          ignore (O.cas_v g sibling_l ~expected:s ~desired:(Link.v_tag s));
          tag ()
        end
      in
      if not (tag ()) then false
      else begin
        O.load g sibling_l wp;
        let s = O.Ptr.view wp in
        if not (Link.v_has_target s) then false (* region gone: re-seek *)
        else begin
          let desired =
            if Link.v_is_flagged s then Link.v_flag (Link.v_clean s)
            else Link.v_clean s
          in
          let anc_link = child_link (O.Ptr.node_exn w.anc) key in
          let won = O.cas_v g anc_link ~expected:w.anc_edge ~desired in
          if won then O.retire_region g w.succ ~keep:s;
          won
        end
      end
    end

  let check_key key =
    if key >= inf0 then invalid_arg "Nm_tree: key must be < max_int - 2"

  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let w = window g in
        seek t g key w;
        key_of (O.Ptr.node_exn w.leaf) = key)

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let w = window g and wp = O.ptr g and lp = O.ptr g and ip = O.ptr g in
    let rec loop () =
      seek t g key w;
      let lf = O.Ptr.node_exn w.leaf in
      if key_of lf = key then false
      else begin
        let cl = child_link (O.Ptr.node_exn w.par) key in
        let e = w.par_edge in
        if is_clean e then begin
          let leaf = alloc_into g lp (mk_leaf g key) in
          let lkey = key_of lf in
          let internal =
            alloc_into g ip (fun hdr ->
                let leaf_l = O.new_link_v g (O.Ptr.view lp) in
                let old_l = O.new_link_v g e in
                if key < lkey then
                  { key = lkey; left = leaf_l; right = old_l; hdr }
                else { key; left = old_l; right = leaf_l; hdr })
          in
          if O.cas_v g cl ~expected:e ~desired:(O.v_ptr t.orc internal) then
            true
          else begin
            O.discard g internal;
            O.discard g leaf;
            (* help an obstructing delete before retrying *)
            let c = Link.view cl in
            if Link.v_is_flagged c || Link.v_is_tagged c then
              ignore (cleanup g key w wp);
            loop ()
          end
        end
        else if Link.v_is_flagged e || Link.v_is_tagged e then begin
          ignore (cleanup g key w wp);
          loop ()
        end
        else loop ()
      end
    in
    loop ()

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let w = window g and wp = O.ptr g in
    let rec injection () =
      seek t g key w;
      let lf = O.Ptr.node_exn w.leaf in
      if key_of lf <> key then false
      else begin
        let cl = child_link (O.Ptr.node_exn w.par) key in
        let e = w.par_edge in
        if is_clean e then
          if O.cas_v g cl ~expected:e ~desired:(Link.v_flag e) then
            cleanup g key w wp || pursue lf
          else injection ()
        else if Link.v_is_flagged e || Link.v_is_tagged e then begin
          (* someone is deleting here: help, then re-examine *)
          ignore (cleanup g key w wp);
          injection ()
        end
        else injection ()
      end
    (* cleanup mode: our leaf is flagged; finish or detect completion
       (a changed leaf means someone excised it for us) *)
    and pursue lf =
      seek t g key w;
      O.Ptr.node_exn w.leaf != lf || cleanup g key w wp || pursue lf
    in
    injection ()

  (* Sequential helpers (quiesced). *)
  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get n.left) with
      | None -> if n.key < inf0 then n.key :: acc else acc
      | Some l -> (
          match Link.target (Link.get n.right) with
          | Some r -> walk (walk acc r) l
          | None -> assert false)
    in
    walk [] t.r

  let size t = List.length (to_list t)
  let destroy t = O.release_roots t.orc [ t.r_root; t.s_root ]
  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end

module Make () = Impl (Orc_core.Orc.Make (N))
