(** Harris's original lock-free linked list [12] with OrcGC.

    This is the paper's obstacle-2 example (§2): searches traverse
    *through* marked (logically deleted) nodes and a whole chain of
    marked nodes is excised with a single CAS, so no thread can tell when
    an individual node becomes unreachable — manual schemes cannot place
    a retire call, and integrating HP-family schemes loses correctness.
    With OrcGC the chain-excision CAS drops the first chain node's count
    and the destructor cascade walks the chain down, reclaiming each node
    as its protections expire.  No algorithmic modification is made. *)

open Atomicx

module Make () = struct
  type node = { key : int; next : node Link.t; hdr : Memdom.Hdr.t }

  module O = Orc_core.Orc.Make (struct
    type t = node

    let hdr n = n.hdr
    let iter_links n f = f n.next
  end)

  type t = {
    head : node;
    tail : node;
    head_root : node Link.t;
    tail_root : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = "orc"

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "orc_harris_list" in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let tp =
          O.alloc_node g (fun hdr ->
              {
                key = max_int;
                next = Link.make_in (O.arena orc) Link.Null;
                hdr;
              })
        in
        let tail = O.Ptr.node_exn tp in
        let hp =
          O.alloc_node g (fun hdr ->
              { key = min_int; next = O.new_link_v g (O.Ptr.view tp); hdr })
        in
        let head = O.Ptr.node_exn hp in
        {
          head;
          tail;
          head_root = O.new_link_v g (O.Ptr.view hp);
          tail_root = O.new_link_v g (O.Ptr.view tp);
          orc;
          alloc;
        })

  (* Harris search: find adjacent (left, right) with left.key < key <=
     right.key and right unmarked, excising any marked chain in between
     with one CAS.  On return [left] and [right] are protected and the
     returned view is the word installed in left.next (pointing at
     right).  The cursor walks *through* marked nodes — the behaviour
     that breaks manual schemes and that OrcGC supports unchanged. *)
  let rec search t g key ~left ~right ~tnext =
    let left_link = ref t.head.next in
    let left_next = ref Link.v_null in
    let restart () = search t g key ~left ~right ~tnext in
    (* [right] plays Harris's cursor t; start at head *)
    O.load g t.head_root right;
    O.load g (next_of t.head) tnext;
    (* do { update left; advance t } while (marked(t.next) || t.key<key) *)
    let rec walk () =
      let tn = O.Ptr.node_exn right in
      if not (O.Ptr.is_marked tnext) then begin
        O.assign g left right;
        left_link := next_of tn;
        left_next := O.Ptr.view tnext
      end;
      match O.Ptr.node tnext with
      | None -> () (* only the tail has a null next *)
      | Some u ->
          O.assign g right tnext;
          if u != t.tail then begin
            O.load g (next_of u) tnext;
            if O.Ptr.is_marked tnext || key_of u < key then walk ()
          end
    in
    walk ();
    let right_node = O.Ptr.node_exn right in
    let right_v = Link.v_clean (O.Ptr.view right) in
    if Link.v_same !left_next right_v then begin
      (* adjacent already; restart if right got marked meanwhile *)
      if
        right_node != t.tail
        && Link.v_is_marked (Link.view (next_of right_node))
      then restart ()
      else (!left_link, !left_next)
    end
    else begin
      (* excise the marked chain [left_next .. right) in one CAS *)
      let desired = Link.v_after !left_next right_v in
      if O.cas_v g !left_link ~expected:!left_next ~desired then begin
        if
          right_node != t.tail
          && Link.v_is_marked (Link.view (next_of right_node))
        then restart ()
        else (!left_link, desired)
      end
      else restart ()
    end

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Orc_harris_list: key out of range"

  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let left = O.ptr g and right = O.ptr g and tnext = O.ptr g in
        let _ = search t g key ~left ~right ~tnext in
        key_of (O.Ptr.node_exn right) = key)

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let left = O.ptr g and right = O.ptr g and tnext = O.ptr g in
    let node = ref None in
    let rec loop () =
      let left_link, right_lv = search t g key ~left ~right ~tnext in
      let right_node = O.Ptr.node_exn right in
      if key_of right_node = key then false
      else begin
        let n =
          match !node with
          | Some n -> n
          | None ->
              let p =
                O.alloc_node g (fun hdr ->
                    {
                      key;
                      next = Link.make_in (O.arena t.orc) Link.Null;
                      hdr;
                    })
              in
              let n = O.Ptr.node_exn p in
              node := Some n;
              n
        in
        O.store_v g n.next (Link.v_clean (O.Ptr.view right));
        if O.cas_v g left_link ~expected:right_lv ~desired:(O.v_ptr t.orc n)
        then true
        else loop ()
      end
    in
    loop ()

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let left = O.ptr g and right = O.ptr g and tnext = O.ptr g in
    let rnext = O.ptr g in
    let rec loop () =
      let left_link, right_lv = search t g key ~left ~right ~tnext in
      let right_node = O.Ptr.node_exn right in
      if key_of right_node <> key then false
      else begin
        O.load g (next_of right_node) rnext;
        if O.Ptr.is_marked rnext then loop ()
        else
          let nv = O.Ptr.view rnext in
          if
            O.cas_v g (next_of right_node) ~expected:nv
              ~desired:(Link.v_mark nv)
          then begin
            (* try to unlink right; otherwise a later search excises it *)
            if
              not
                (O.cas_v g left_link ~expected:right_lv
                   ~desired:(Link.v_clean nv))
            then ignore (search t g key ~left ~right ~tnext);
            true
          end
          else loop ()
      end
    in
    loop ()

  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get n.next) with
      | None -> List.rev acc
      | Some nx ->
          if nx == t.tail then List.rev acc
          else
            let deleted = Link.is_marked (Link.get nx.next) in
            walk (if deleted then acc else key_of nx :: acc) nx
    in
    walk [] t.head

  let size t = List.length (to_list t)

  let destroy t =
    O.with_guard t.orc (fun g ->
        O.store_v g t.head_root Link.v_null;
        O.store_v g t.tail_root Link.v_null)

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end
