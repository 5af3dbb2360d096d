(** Natarajan & Mittal's lock-free external BST with OrcGC.

    Identical algorithm to {!Nm_tree}, but no retire logic at all: the
    winning ancestor CAS drops the successor's hard-link count and the
    destructor cascade reclaims the whole excised region — path nodes and
    flagged leaves alike — once their protections expire.  The surviving
    sibling subtree is safe because the CAS increments its root's count
    before the excised parent's link to it is dropped. *)

open Atomicx

let inf0 = Nm_tree.inf0
let inf1 = Nm_tree.inf1
let inf2 = Nm_tree.inf2

module Make () = struct
  type node = {
    key : int;
    left : node Link.t;
    right : node Link.t;
    hdr : Memdom.Hdr.t;
  }

  module O = Orc_core.Orc.Make (struct
    type t = node

    let hdr n = n.hdr

    let iter_links n f =
      f n.left;
      f n.right
  end)

  type t = {
    r : node;
    s : node;
    r_root : node Link.t;
    s_root : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  type seek_record = {
    mutable anc_edge : node Link.view;
    mutable par_edge : node Link.view;
  }

  let scheme_name = "orc"

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let left_of n =
    Memdom.Hdr.check_access n.hdr;
    n.left

  let right_of n =
    Memdom.Hdr.check_access n.hdr;
    n.right

  let child_link n key = if key < key_of n then left_of n else right_of n

  (* an edge holding a plain pointer, no flag/tag bit *)
  let is_clean e = Link.v_has_target e && Link.v_same e (Link.v_clean e)

  let mk_leaf orc key hdr =
    let ar = O.arena orc in
    {
      key;
      left = Link.make_in ar Link.Null;
      right = Link.make_in ar Link.Null;
      hdr;
    }

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "orc_nm_tree" in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let leaf k = O.alloc_node g (mk_leaf orc k) in
        let l0 = leaf inf0 and l1 = leaf inf1 and l2 = leaf inf2 in
        let sp =
          O.alloc_node g (fun hdr ->
              {
                key = inf1;
                left = O.new_link_v g (O.Ptr.view l0);
                right = O.new_link_v g (O.Ptr.view l1);
                hdr;
              })
        in
        let rp =
          O.alloc_node g (fun hdr ->
              {
                key = inf2;
                left = O.new_link_v g (O.Ptr.view sp);
                right = O.new_link_v g (O.Ptr.view l2);
                hdr;
              })
        in
        {
          r = O.Ptr.node_exn rp;
          s = O.Ptr.node_exn sp;
          r_root = O.new_link_v g (O.Ptr.view rp);
          s_root = O.new_link_v g (O.Ptr.view sp);
          orc;
          alloc;
        })

  (* seek with guard-scoped protections for (anc, succ, par, leaf, cur). *)
  let seek t g key ~anc ~succ ~par ~leaf ~cur =
    let sk = { anc_edge = Link.view t.r.left; par_edge = Link.v_null } in
    O.load g t.r_root anc;
    O.load g t.s_root succ;
    O.load g t.s_root par;
    O.load g t.s.left leaf;
    sk.par_edge <- O.Ptr.view leaf;
    let rec walk () =
      let l = O.Ptr.node_exn leaf in
      if Link.v_has_target (Link.view (left_of l)) then begin
        (* an internal node: descend *)
        O.load g (child_link l key) cur;
        if not (Link.v_is_tagged sk.par_edge) then begin
          O.assign g anc par;
          O.assign g succ leaf;
          sk.anc_edge <- sk.par_edge
        end;
        O.assign g par leaf;
        sk.par_edge <- O.Ptr.view cur;
        O.assign g leaf cur;
        walk ()
      end
    in
    walk ();
    sk

  (* cleanup: tag the sibling edge, then swing the ancestor edge to the
     surviving sibling.  The CAS's automatic count transfer (inc sibling,
     dec successor) triggers the cascade that reclaims the region. *)
  let cleanup g key sk ~anc ~par ~wp =
    let p = O.Ptr.node_exn par in
    let child_l, sibling_l =
      if key < key_of p then (left_of p, right_of p)
      else (right_of p, left_of p)
    in
    let sibling_l =
      if Link.v_is_flagged (Link.view child_l) then sibling_l else child_l
    in
    let rec tag () =
      let s = Link.view sibling_l in
      if not (Link.v_is_tagged s) then
        if not (O.cas_v g sibling_l ~expected:s ~desired:(Link.v_tag s)) then
          tag ()
    in
    tag ();
    (* protect the survivor before granting it a new hard link *)
    O.load g sibling_l wp;
    let s = O.Ptr.view wp in
    if not (Link.v_has_target s) then
      false (* sibling vanished: the region is gone; re-seek *)
    else
      let desired =
        if Link.v_is_flagged s then Link.v_flag (Link.v_clean s)
        else Link.v_clean s
      in
      let anc_link = child_link (O.Ptr.node_exn anc) key in
      O.cas_v g anc_link ~expected:sk.anc_edge ~desired

  let check_key key =
    if key >= inf0 then invalid_arg "Orc_nm_tree: key must be < max_int - 2"

  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let anc = O.ptr g and succ = O.ptr g and par = O.ptr g in
        let leaf = O.ptr g and cur = O.ptr g in
        let _sk = seek t g key ~anc ~succ ~par ~leaf ~cur in
        key_of (O.Ptr.node_exn leaf) = key)

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let anc = O.ptr g and succ = O.ptr g and par = O.ptr g in
    let leaf = O.ptr g and cur = O.ptr g and wp = O.ptr g in
    let lp = O.ptr g and ip = O.ptr g in
    let rec loop () =
      let sk = seek t g key ~anc ~succ ~par ~leaf ~cur in
      let lf = O.Ptr.node_exn leaf in
      if key_of lf = key then false
      else begin
        let cl = child_link (O.Ptr.node_exn par) key in
        let e = sk.par_edge in
        if is_clean e then begin
          ignore (O.alloc_node_into g lp (mk_leaf t.orc key));
          let lkey = key_of lf in
          let internal =
            O.alloc_node_into g ip (fun hdr ->
                let leaf_l = O.new_link_v g (O.Ptr.view lp) in
                let old_l = O.new_link_v g e in
                if key < lkey then
                  { key = lkey; left = leaf_l; right = old_l; hdr }
                else { key; left = old_l; right = leaf_l; hdr })
          in
          if O.cas_v g cl ~expected:e ~desired:(O.v_ptr t.orc internal) then
            true
          else begin
            let c = Link.view cl in
            if Link.v_is_flagged c || Link.v_is_tagged c then
              ignore (cleanup g key sk ~anc ~par ~wp);
            loop ()
          end
        end
        else if Link.v_is_flagged e || Link.v_is_tagged e then begin
          ignore (cleanup g key sk ~anc ~par ~wp);
          loop ()
        end
        else loop ()
      end
    in
    loop ()

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let anc = O.ptr g and succ = O.ptr g and par = O.ptr g in
    let leaf = O.ptr g and cur = O.ptr g and wp = O.ptr g in
    let rec injection () =
      let sk = seek t g key ~anc ~succ ~par ~leaf ~cur in
      let lf = O.Ptr.node_exn leaf in
      if key_of lf <> key then false
      else begin
        let cl = child_link (O.Ptr.node_exn par) key in
        let e = sk.par_edge in
        if is_clean e then
          if O.cas_v g cl ~expected:e ~desired:(Link.v_flag e) then
            if cleanup g key sk ~anc ~par ~wp then true else pursue lf
          else injection ()
        else if Link.v_is_flagged e || Link.v_is_tagged e then begin
          ignore (cleanup g key sk ~anc ~par ~wp);
          injection ()
        end
        else injection ()
      end
    and pursue lf =
      let sk = seek t g key ~anc ~succ ~par ~leaf ~cur in
      if O.Ptr.node_exn leaf != lf then true
      else if cleanup g key sk ~anc ~par ~wp then true
      else pursue lf
    in
    injection ()

  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get n.left) with
      | None -> if n.key < inf0 then n.key :: acc else acc
      | Some l ->
          let r =
            match Link.target (Link.get n.right) with
            | Some r -> r
            | None -> assert false
          in
          walk (walk acc r) l
    in
    walk [] t.r

  let size t = List.length (to_list t)

  let destroy t =
    O.with_guard t.orc (fun g ->
        O.store_v g t.r_root Link.v_null;
        O.store_v g t.s_root Link.v_null)

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end
