(** Michael's lock-free list with OrcGC — same algorithm as
    {!Michael_list} but with type annotations only: links are orc-managed,
    local references are guard-scoped [Ptr] handles, and there is no
    retire call; unlinking a node drops its last hard link and OrcGC
    reclaims it once unprotected (paper §4.1.1 methodology).

    Handles hold raw link words ([O.Ptr.view]), window validation
    compares words ([Link.view_eq] — sound because the word's target is
    hazard-protected, pinning its arena slot, and the write stamp tells
    a rewritten link apart), and the CASes are word operations, so a
    clean traversal allocates nothing. *)

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
    head_root : node Link.t; (* root links keep the sentinels counted *)
    tail_root : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
    restarts : int Atomic.t; (* traversal restarts (validation failures) *)
  }

  let scheme_name = "orc"

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "orc_michael_list" in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let tp =
          O.alloc_node g (fun hdr ->
              { key = max_int; next = O.new_link_v g Link.v_null; hdr })
        in
        let tail = O.Ptr.node_exn tp in
        let hp =
          O.alloc_node g (fun hdr ->
              {
                key = min_int;
                next = O.new_link_v g (O.v_ptr orc tail);
                hdr;
              })
        in
        let head = O.Ptr.node_exn hp in
        let head_root = O.new_link_v g (O.v_ptr orc head) in
        let tail_root = O.new_link_v g (O.v_ptr orc tail) in
        { head; tail; head_root; tail_root; orc; alloc; restarts = Atomic.make 0 })

  let restarts t = Atomic.get t.restarts

  (* find: walk until curr.key >= key, unlinking marked nodes on the way.
     On return, [curr] (protected) is the candidate and the returned link
     is the predecessor link whose current content is [Ptr.view curr] —
     ready to be used as a CAS expectation.  [prev] protects the node
     that owns that link (or is irrelevant when it is the head's). *)
  let rec find t g key ~prev ~curr ~next =
    let prev_link = ref t.head.next in
    O.load g !prev_link curr;
    let restart () =
      Atomic.incr t.restarts;
      find t g key ~prev ~curr ~next
    in
    let rec loop () =
      let c = O.Ptr.node_exn curr in
      O.load g (next_of c) next;
      if not (Link.view_eq (Link.view !prev_link) (O.Ptr.view curr)) then
        restart ()
      else if O.Ptr.is_marked next then begin
        (* curr logically deleted: unlink; its count drops automatically *)
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

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Orc_michael_list: key out of range"

  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
        fst (find t g key ~prev ~curr ~next))

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
                    { key; next = O.new_link_v g Link.v_null; hdr })
              in
              let n = O.Ptr.node_exn p in
              node := Some n;
              n
        in
        (* point the private node at curr (counts maintained), then CAS *)
        O.store_v g n.next (O.Ptr.view curr);
        if
          O.cas_v g prev_link ~expected:(O.Ptr.view curr)
            ~desired:(O.v_ptr t.orc n)
        then true
        else begin
          Atomic.incr t.restarts;
          loop ()
        end
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
        if O.Ptr.is_marked next then begin
          Atomic.incr t.restarts;
          loop ()
        end
        else begin
          (* found node always precedes tail — next must have a target *)
          ignore (O.Ptr.node_exn next);
          if
            O.cas_v g (next_of c) ~expected:(O.Ptr.view next)
              ~desired:(Link.v_mark (O.Ptr.view next))
          then begin
            (* attempt physical unlink (otherwise a later find cleans
               up); it ends [curr]'s protection, so the victim is freed
               here unless another thread protects it *)
            if
              not
                (O.unlink_v g prev_link curr
                   ~desired:(Link.v_clean (O.Ptr.view next)))
            then ignore (find t g key ~prev ~curr ~next);
            true
          end
          else begin
            Atomic.incr t.restarts;
            loop ()
          end
        end
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

  (* Drop the roots and the head's chain: OrcGC cascades. *)
  let destroy t =
    O.with_guard t.orc (fun g ->
        O.store_v g t.head_root Link.v_null;
        O.store_v g t.tail_root Link.v_null)

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end
