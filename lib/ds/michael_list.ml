(** Michael's lock-free linked-list set [18] ("Michael-Harris" in the
    paper's figures), parameterized by a manual reclamation scheme.

    This is the one list of the paper's four that manual schemes *can*
    handle: a node is marked (logical delete) and then physically
    unlinked by a single CAS, and only the unlinking thread calls retire,
    so retire's precondition — unreachable from the roots — is decidable
    at a fixed program point.

    Hazard indexes: 0 = curr, 1 = next, 2 = prev node.  The traversal
    runs on the link *view* plane: a view is the raw word, write stamp
    included, so window validation by [Link.view_eq] fails once the
    link was written, and word equality is sound because the word's
    target (curr) is protected at hazard 0 — a protected node's arena
    slot cannot be recycled, so an unchanged word still means the same
    node.  A clean traversal allocates nothing: views are immediates,
    CASes are word compare-and-sets, and protection goes through
    [S.get_protected_v] (unboxed uid plane on HP).

    Keys must lie strictly between [min_int] and [max_int] (the sentinel
    keys). *)

open Atomicx

module Make (R : Reclaim.Scheme_intf.MAKER) = struct
  type node = { key : int; next : node Link.t; hdr : Memdom.Hdr.t }

  module S = R (struct
    type t = node

    let hdr n = n.hdr
  end)

  type t = {
    head : node; (* sentinel, never retired *)
    tail : node; (* sentinel, never retired *)
    scheme : S.t;
    alloc : Memdom.Alloc.t;
    arena : node Link.arena;
    restarts : int Atomic.t; (* traversal restarts (validation failures) *)
  }

  let scheme_name = S.name

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "michael_list" in
    let scheme = S.create ~max_hps:4 alloc in
    let arena = Memdom.Handle.arena ~hdr:(fun n -> n.hdr) () in
    let tail =
      {
        key = max_int;
        next = Link.make_in arena Link.Null;
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    let head =
      {
        key = min_int;
        next = Link.make_in arena (Link.Ptr tail);
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    { head; tail; scheme; alloc; arena; restarts = Atomic.make 0 }

  let restarts t = Atomic.get t.restarts

  let target_exn st =
    match Link.target st with
    | Some n -> n
    | None -> assert false (* the tail sentinel terminates every search *)

  (* The search window, threaded through the traversal in accumulator
     style so a clean pass allocates nothing (no refs, no tuples).  On
     return [true]: curr holds the key, protected at hazard 0, its
     predecessor's link is the last [prev_link] seen by the caller's
     continuation — [find] re-materialises the window for add/remove. *)
  let rec search_from t ~tid key prev_link curr_v =
    let curr = Link.v_target_exn prev_link curr_v in
    let next_v = S.get_protected_v t.scheme ~tid ~idx:1 (next_of curr) in
    if not (Link.view_eq (Link.view prev_link) curr_v) then
      search_restart t ~tid key
    else if Link.v_is_marked next_v then begin
      (* curr is logically deleted: unlink it physically *)
      let unmarked = Link.v_after curr_v (Link.v_clean next_v) in
      if Link.cas_v prev_link curr_v unmarked then begin
        S.retire t.scheme ~tid curr;
        S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
        search_from t ~tid key prev_link unmarked
      end
      else search_restart t ~tid key
    end
    else if key_of curr >= key then key_of curr = key
    else begin
      (* advance: curr becomes prev (copy protections, both held) *)
      S.copy_protection t.scheme ~tid ~src:0 ~dst:2;
      S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
      search_from t ~tid key (next_of curr) next_v
    end

  and search_restart t ~tid key =
    Atomic.incr t.restarts;
    let root = t.head.next in
    search_from t ~tid key root (S.get_protected_v t.scheme ~tid ~idx:0 root)

  let search t ~tid key = search_restart t ~tid key

  (* Window-returning variant for add/remove; the extra ref cells and
     the result tuple are noise only on the mutating paths, which
     allocate anyway (fresh node / retire). *)
  let rec find t ~tid key =
    let prev_link = ref t.head.next in
    let curr_v = ref (S.get_protected_v t.scheme ~tid ~idx:0 !prev_link) in
    let restart () =
      Atomic.incr t.restarts;
      find t ~tid key
    in
    let rec loop () =
      let curr = Link.v_target_exn !prev_link !curr_v in
      let next_v = S.get_protected_v t.scheme ~tid ~idx:1 (next_of curr) in
      if not (Link.view_eq (Link.view !prev_link) !curr_v) then restart ()
      else if Link.v_is_marked next_v then begin
        (* the word the CAS installs: the window keeps validating
           against it *)
        let unmarked = Link.v_after !curr_v (Link.v_clean next_v) in
        if Link.cas_v !prev_link !curr_v unmarked then begin
          S.retire t.scheme ~tid curr;
          curr_v := unmarked;
          S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
          loop ()
        end
        else restart ()
      end
      else if key_of curr >= key then (key_of curr = key, !prev_link, !curr_v)
      else begin
        S.copy_protection t.scheme ~tid ~src:0 ~dst:2;
        prev_link := next_of curr;
        curr_v := next_v;
        S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
        loop ()
      end
    in
    loop ()

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Michael_list: key must be strictly inside (min_int, max_int)"

  let contains t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let found = search t ~tid key in
    S.end_op t.scheme ~tid;
    found

  let add t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let rec loop () =
      let found, prev_link, curr_v = find t ~tid key in
      if found then false
      else
        let node =
          {
            key;
            next = Link.make_of_view t.arena curr_v;
            hdr = Memdom.Alloc.hdr t.alloc ();
          }
        in
        if Link.cas_v prev_link curr_v (Link.v_ptr_in t.arena node) then true
        else begin
          (* lost the race: the fresh node was never published *)
          Memdom.Alloc.free t.alloc node.hdr;
          Atomic.incr t.restarts;
          loop ()
        end
    in
    let r = loop () in
    S.end_op t.scheme ~tid;
    r

  let remove t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let rec loop () =
      let found, prev_link, curr_v = find t ~tid key in
      if not found then false
      else
        let curr = Link.v_target_exn prev_link curr_v in
        let next_v = S.get_protected_v t.scheme ~tid ~idx:1 (next_of curr) in
        if Link.v_is_marked next_v then begin
          Atomic.incr t.restarts;
          loop ()
        end
        else begin
          (* found node always precedes tail *)
          assert (Link.v_has_target next_v);
          let marked = Link.v_mark next_v in
          if Link.cas_v (next_of curr) next_v marked then begin
            (* try to unlink; on failure find() will clean up *)
            let unmarked = Link.v_clean next_v in
            if Link.cas_v prev_link curr_v unmarked then
              S.retire t.scheme ~tid curr
            else ignore (find t ~tid key);
            true
          end
          else begin
            Atomic.incr t.restarts;
            loop ()
          end
        end
    in
    let r = loop () in
    S.end_op t.scheme ~tid;
    r

  (* Sequential helpers (quiesced): collect the keys of nodes that are
     reachable and not logically deleted. *)
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
    let rec free_chain n =
      if n != t.tail then begin
        let nx = target_exn (Link.get n.next) in
        Memdom.Alloc.free t.alloc n.hdr;
        free_chain nx
      end
      else Memdom.Alloc.free t.alloc n.hdr
    in
    (match Link.target (Link.get t.head.next) with
    | Some n -> free_chain n
    | None -> ());
    Memdom.Alloc.free t.alloc t.head.hdr;
    Link.set t.head.next Link.Null;
    S.flush t.scheme

  let unreclaimed t = S.unreclaimed t.scheme
  let flush t = S.flush t.scheme
  let alloc t = t.alloc
end
