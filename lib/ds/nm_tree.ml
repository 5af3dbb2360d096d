(** Natarajan & Mittal's lock-free external binary search tree [22],
    parameterized by a manual reclamation scheme.

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
    children — and retires exactly those nodes; helped deletes return
    without retiring anything.

    Hazard indexes: 0 = ancestor, 1 = successor, 2 = parent, 3 = leaf,
    4 = cursor.  Keys must be < [max_int - 2] (the three infinity
    sentinels). *)

open Atomicx

let inf0 = max_int - 2
let inf1 = max_int - 1
let inf2 = max_int

module Make (R : Reclaim.Scheme_intf.MAKER) = struct
  type node = {
    key : int;
    left : node Link.t; (* [Null] in leaves *)
    right : node Link.t;
    hdr : Memdom.Hdr.t;
  }

  module S = R (struct
    type t = node

    let hdr n = n.hdr
  end)

  type t = {
    r : node; (* sentinel root, immortal *)
    s : node; (* sentinel child, immortal *)
    scheme : S.t;
    alloc : Memdom.Alloc.t;
    arena : node Link.arena;
  }

  type seek_record = {
    mutable anc : node;
    mutable succ : node;
    mutable par : node;
    mutable leaf : node;
    mutable anc_edge : node Link.view; (* word read from edge anc->succ *)
    mutable par_edge : node Link.view; (* word read from edge par->leaf *)
  }

  let scheme_name = S.name

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

  (* an edge holding a plain pointer, no mark/flag/tag bit *)
  let is_clean e = Link.v_has_target e && Link.v_same e (Link.v_clean e)

  let mk_leaf alloc arena key =
    {
      key;
      left = Link.make_in arena Link.Null;
      right = Link.make_in arena Link.Null;
      hdr = Memdom.Alloc.hdr alloc ();
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "nm_tree" in
    let scheme = S.create ~max_hps:5 alloc in
    let arena = Memdom.Handle.arena ~hdr:(fun n -> n.hdr) () in
    let l0 = mk_leaf alloc arena inf0 in
    let l1 = mk_leaf alloc arena inf1 in
    let l2 = mk_leaf alloc arena inf2 in
    let s =
      {
        key = inf1;
        left = Link.make_in arena (Link.Ptr l0);
        right = Link.make_in arena (Link.Ptr l1);
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    let r =
      {
        key = inf2;
        left = Link.make_in arena (Link.Ptr s);
        right = Link.make_in arena (Link.Ptr l2);
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    { r; s; scheme; alloc; arena }

  let target_exn st =
    match Link.target st with Some n -> n | None -> assert false

  (* Natarajan-Mittal seek: walk down to the leaf for [key], remembering
     the deepest ancestor whose path edge is untagged.  Restarts when it
     steps on a poisoned edge: unlike the lists, excision here does not
     modify the interior edges of the removed region, so hazard
     validation alone cannot tell that a frozen path has left the tree —
     the excising thread therefore poisons the region's edges before
     retiring (see [excise_region]), and poison is the traversal's signal
     that it has wandered into reclaimed territory. *)
  let rec seek t ~tid key =
    let sk =
      {
        anc = t.r;
        succ = t.s;
        par = t.s;
        leaf = t.s (* placeholder, set below *);
        anc_edge = Link.view t.r.left (* immortal edge R->S *);
        par_edge = Link.v_null;
      }
    in
    let par_edge = S.get_protected_v t.scheme ~tid ~idx:3 t.s.left in
    sk.par_edge <- par_edge;
    sk.leaf <- Link.v_node t.arena par_edge;
    let restart = ref false in
    let rec walk () =
      let l = sk.leaf in
      let probe = Link.view (left_of l) in
      if Link.v_is_poison probe then restart := true
      else if not (Link.v_has_target probe) then () (* l is a leaf: done *)
      else begin
        (* l is internal: descend by key *)
        let cur_v =
          S.get_protected_v t.scheme ~tid ~idx:4 (child_link l key)
        in
        if Link.v_is_poison cur_v then restart := true
        else begin
          if not (Link.v_is_tagged sk.par_edge) then begin
            sk.anc <- sk.par;
            sk.succ <- sk.leaf;
            sk.anc_edge <- sk.par_edge;
            S.copy_protection t.scheme ~tid ~src:2 ~dst:0;
            S.copy_protection t.scheme ~tid ~src:3 ~dst:1
          end;
          sk.par <- l;
          S.copy_protection t.scheme ~tid ~src:3 ~dst:2;
          sk.par_edge <- cur_v;
          sk.leaf <- Link.v_node t.arena cur_v;
          S.copy_protection t.scheme ~tid ~src:4 ~dst:3;
          walk ()
        end
      end
    in
    walk ();
    if !restart then seek t ~tid key else sk

  (* Excise and retire the removed region: every node reachable from [x]
     except the surviving sibling subtree, whose root the frozen edge
     word [sv] names.  The region is frozen (all its edges
     flagged/tagged) and bounded by the number of concurrent deletes.
     Its edges are poisoned *before* any node is retired so that
     concurrent traversals stuck inside the region fail their next
     protection step and restart instead of chasing frozen links into
     freed memory.

     The survivor is recognised by its arena slot, never dereferenced:
     it is now linked under the ancestor, unprotected, so a concurrent
     delete may free it and its slot be re-issued while the region is
     collected.  Every other edge of the region targets a region node,
     which stays allocated until this call retires it, so no region
     node can hold the survivor's slot. *)
  let excise_region t ~tid x sv =
    let survivor = Link.v_clean sv in
    let nodes = ref [] in
    let rec collect x =
      let child l =
        let v = Link.view l in
        if Link.v_has_target v && not (Link.v_same (Link.v_clean v) survivor)
        then collect (Link.v_node t.arena v)
      in
      child x.left;
      child x.right;
      nodes := x :: !nodes
    in
    collect x;
    List.iter
      (fun n ->
        Link.set_v n.left Link.v_poison;
        Link.set_v n.right Link.v_poison)
      !nodes;
    List.iter (fun n -> S.retire t.scheme ~tid n) !nodes

  (* cleanup: freeze the parent's sibling edge and swing the ancestor
     edge to the sibling.  Returns true iff this call's CAS won. *)
  let cleanup t ~tid key sk =
    let par = sk.par in
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
        if Link.v_is_poison s then None
        else if Link.v_is_tagged s then Some s
        else begin
          ignore (Link.cas_v sibling_l s (Link.v_tag s));
          tag ()
        end
      in
      match tag () with
      | None -> false
      | Some s ->
          let desired =
            if Link.v_is_flagged s then Link.v_flag (Link.v_clean s)
            else Link.v_clean s
          in
          let anc_link = child_link sk.anc key in
          if Link.cas_v anc_link sk.anc_edge desired then begin
            excise_region t ~tid sk.succ s;
            true
          end
          else false
    end

  let check_key key =
    if key >= inf0 then invalid_arg "Nm_tree: key must be < max_int - 2"

  let contains t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let sk = seek t ~tid key in
    let r = key_of sk.leaf = key in
    S.end_op t.scheme ~tid;
    r

  let add t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let rec loop () =
      let sk = seek t ~tid key in
      if key_of sk.leaf = key then false
      else begin
        let cl = child_link sk.par key in
        let e = sk.par_edge in
        if is_clean e then begin
          let new_leaf = mk_leaf t.alloc t.arena key in
          let lkey = key_of sk.leaf in
          let leaf_l = Link.make_in t.arena (Link.Ptr new_leaf) in
          let old_l = Link.make_of_view t.arena e in
          let internal =
            let hdr = Memdom.Alloc.hdr t.alloc () in
            if key < lkey then { key = lkey; left = leaf_l; right = old_l; hdr }
            else { key; left = old_l; right = leaf_l; hdr }
          in
          if Link.cas_v cl e (Link.v_ptr_in t.arena internal) then true
          else begin
            (* never published: plain frees *)
            Memdom.Alloc.free t.alloc new_leaf.hdr;
            Memdom.Alloc.free t.alloc internal.hdr;
            (* help an obstructing delete before retrying *)
            let c = Link.view cl in
            if Link.v_is_flagged c || Link.v_is_tagged c then
              ignore (cleanup t ~tid key sk);
            loop ()
          end
        end
        else if Link.v_is_flagged e || Link.v_is_tagged e then begin
          ignore (cleanup t ~tid key sk);
          loop ()
        end
        else loop ()
      end
    in
    let r = loop () in
    S.end_op t.scheme ~tid;
    r

  let remove t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let rec injection () =
      let sk = seek t ~tid key in
      if key_of sk.leaf <> key then false
      else begin
        let cl = child_link sk.par key in
        let e = sk.par_edge in
        if is_clean e then
          if Link.cas_v cl e (Link.v_flag e) then
            if cleanup t ~tid key sk then true else pursue sk.leaf
          else injection ()
        else if Link.v_is_flagged e || Link.v_is_tagged e then begin
          (* someone is deleting here: help, then re-examine *)
          ignore (cleanup t ~tid key sk);
          injection ()
        end
        else injection ()
      end
    (* cleanup mode: our leaf is flagged; finish or detect completion *)
    and pursue leaf =
      let sk = seek t ~tid key in
      if sk.leaf != leaf then true (* someone excised it for us *)
      else if cleanup t ~tid key sk then true
      else pursue leaf
    in
    let r = injection () in
    S.end_op t.scheme ~tid;
    r

  (* Sequential helpers (quiesced). *)
  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get n.left) with
      | None -> if n.key < inf0 then n.key :: acc else acc
      | Some l ->
          let r = target_exn (Link.get n.right) in
          walk (walk acc r) l
    in
    walk [] t.r

  let size t = List.length (to_list t)

  let destroy t =
    let rec free_subtree n =
      (match Link.target (Link.get n.left) with
      | Some l -> free_subtree l
      | None -> ());
      (match Link.target (Link.get n.right) with
      | Some r -> free_subtree r
      | None -> ());
      Memdom.Alloc.free t.alloc n.hdr
    in
    free_subtree t.r;
    Link.set t.r.left Link.Null;
    Link.set t.r.right Link.Null;
    S.flush t.scheme

  let unreclaimed t = S.unreclaimed t.scheme
  let flush t = S.flush t.scheme
  let alloc t = t.alloc
end
