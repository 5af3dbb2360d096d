(** Herlihy & Shavit's nonblocking list with wait-free lookups [15],
    with OrcGC.

    [contains] traverses the list without ever restarting and without
    helping: it walks straight through marked nodes and reports whether
    an unmarked node with the key was seen.  That requires the pointers
    of removed nodes to stay valid while any traversal can still reach
    them — the paper's obstacle 2, which rules out HP-family manual
    schemes.  Under OrcGC a removed node keeps its outgoing hard link
    until the node itself is reclaimed, so the lookup path stays sound
    with no algorithm change.

    [add]/[remove] are the usual find-window operations (as in
    {!Orc_michael_list}). *)

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
    let alloc = Memdom.Alloc.create ~mode "orc_hs_list" in
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

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Orc_hs_list: key out of range"

  (* Identical window-find to the Michael list (unlinks marked nodes on
     the way); used by add and remove only. *)
  let rec find t g key ~prev ~curr ~next =
    let prev_link = ref t.head.next in
    O.load g !prev_link curr;
    let restart () = find t g key ~prev ~curr ~next in
    let rec loop () =
      let c = O.Ptr.node_exn curr in
      O.load g (next_of c) next;
      if not (Link.view_eq (Link.view !prev_link) (O.Ptr.view curr)) then
        restart ()
      else if O.Ptr.is_marked next then begin
        let unmarked =
          Link.v_after (O.Ptr.view curr) (Link.v_clean (O.Ptr.view next))
        in
        if O.cas_v g !prev_link ~expected:(O.Ptr.view curr) ~desired:unmarked
        then begin
          O.assign g curr next;
          O.Ptr.retag_v curr unmarked;
          loop ()
        end
        else restart ()
      end
      else if key_of c >= key then (key_of c = key, !prev_link)
      else begin
        O.advance g prev curr next;
        prev_link := next_of c;
        loop ()
      end
    in
    loop ()

  (* Wait-free lookup: one forward pass, straight through marked nodes,
     no restart, no helping. *)
  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let curr = O.ptr g and next = O.ptr g in
        O.load g t.head_root curr;
        let rec walk () =
          let c = O.Ptr.node_exn curr in
          if key_of c > key then false
          else begin
            O.load g (next_of c) next;
            if key_of c = key then not (O.Ptr.is_marked next)
            else begin
              O.assign g curr next;
              walk ()
            end
          end
        in
        walk ())

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    let node = ref None in
    let rec loop () =
      let found, prev_link = find t g key ~prev ~curr ~next in
      if found then false
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
        O.store_v g n.next (O.Ptr.view curr);
        if
          O.cas_v g prev_link ~expected:(O.Ptr.view curr)
            ~desired:(O.v_ptr t.orc n)
        then true
        else loop ()
      end
    in
    loop ()

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    let rec loop () =
      let found, prev_link = find t g key ~prev ~curr ~next in
      if not found then false
      else begin
        let c = O.Ptr.node_exn curr in
        O.load g (next_of c) next;
        if O.Ptr.is_marked next then loop ()
        else
          if
            O.cas_v g (next_of c) ~expected:(O.Ptr.view next)
              ~desired:(Link.v_mark (O.Ptr.view next))
          then begin
            (* physical unlink, which also ends [curr]'s protection: the
               victim is freed here unless another thread protects it *)
            if
              not
                (O.unlink_v g prev_link curr
                   ~desired:(Link.v_clean (O.Ptr.view next)))
            then ignore (find t g key ~prev ~curr ~next);
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
