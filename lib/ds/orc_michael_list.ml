(** Michael's lock-free linked-list set [18] ("Michael-Harris" in the
    paper's figures), written once against {!Intf.CORE}: {!Make} runs
    it under OrcGC, {!Michael_list.Make} over a manual scheme.

    This is the one list of the paper's four that manual schemes {e
    can} handle: a node is marked (logical delete) and then physically
    unlinked by a single CAS, and only the unlinking thread retires it,
    so retire's precondition — unreachable from the roots — holds at a
    fixed program point.  Those points are the core's [retire] and
    [unlink_v]; under OrcGC the first is a no-op and the second drops
    the node's last hard link (paper §4.1.1 methodology).

    Handles hold raw link words ([O.Ptr.view]), window validation
    compares words ([Link.view_eq] — sound because the word's target is
    protected, pinning its arena slot, and the write stamp tells a
    rewritten link apart), and the CASes are word operations.  Keys
    must lie strictly between [min_int] and [max_int] (the sentinel
    keys). *)

open Atomicx

type node = { key : int; next : node Link.t; hdr : Memdom.Hdr.t }

module N = struct
  type t = node

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

module type S = sig
  include Intf.SET

  val restarts : t -> int
end

module Impl (O : Intf.CORE with type node = node) = struct
  type t = {
    head : node; (* sentinel, never retired *)
    tail : node; (* sentinel, never retired *)
    head_root : node Link.t; (* root links keep the sentinels counted *)
    tail_root : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
    restarts : int Atomic.t; (* traversal restarts (validation failures) *)
  }

  let scheme_name = O.name

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("michael_list/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let tail =
          O.alloc_node_into g (O.ptr g) (fun hdr ->
              { key = max_int; next = O.new_link_v g Link.v_null; hdr })
        in
        let head =
          O.alloc_node_into g (O.ptr g) (fun hdr ->
              {
                key = min_int;
                next = O.new_link_v g (O.v_ptr orc tail);
                hdr;
              })
        in
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
    let restart () =
      Atomic.incr t.restarts;
      find t g key ~prev ~curr ~next
    in
    let rec loop prev_link =
      let c = O.Ptr.node_exn curr in
      O.load g (next_of c) next;
      if not (Link.view_eq (Link.view prev_link) (O.Ptr.view curr)) then
        restart ()
      else if O.Ptr.is_marked next then begin
        (* curr is logically deleted: unlink it physically; the window
           keeps validating against the word the CAS installs *)
        let unmarked =
          Link.v_after (O.Ptr.view curr) (Link.v_clean (O.Ptr.view next))
        in
        if O.cas_v g prev_link ~expected:(O.Ptr.view curr) ~desired:unmarked
        then begin
          O.retire g curr;
          O.assign g curr next;
          O.Ptr.retag_v curr unmarked;
          loop prev_link
        end
        else restart ()
      end
      else if key_of c >= key then (key_of c = key, prev_link)
      else begin
        O.advance g prev curr next;
        loop (next_of c)
      end
    in
    let root = t.head.next in
    O.load g root curr;
    loop root

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Michael_list: key must be strictly inside (min_int, max_int)"

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
      if found then begin
        Option.iter (O.discard g) !node;
        false
      end
      else begin
        let n =
          match !node with
          | Some n -> n
          | None ->
              let n =
                O.alloc_node_into g (O.ptr g) (fun hdr ->
                    { key; next = O.new_link_v g Link.v_null; hdr })
              in
              node := Some n;
              n
        in
        (* point the private node at curr, then CAS *)
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
            (* attempt the physical unlink, which retires [curr] (orc:
               ends its protection, so the victim is freed here unless
               another thread protects it); otherwise a find cleans up *)
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

  (* Quiesced helpers: the keys of nodes that are reachable and not
     logically deleted. *)
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
  let destroy t = O.release_roots t.orc [ t.head_root; t.tail_root ]
  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end

module Make () = Impl (Orc_core.Orc.Make (N))
