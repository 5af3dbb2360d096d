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

    The list's find/insert/delete is {!Window}, the one copy of
    Michael's window in this library: the Herlihy–Shavit list
    ({!Orc_hs_list}) runs it for [add]/[remove], and the split-ordered
    map ({!Orc_split_map}) anchors it at a bucket entry.

    Handles hold raw link words ([O.Ptr.view]), window validation
    compares words ([Link.view_eq] — sound because the word's target is
    protected, pinning its arena slot, and the write stamp tells a
    rewritten link apart), and the CASes are word operations.  Keys
    must lie strictly between [min_int] and [max_int] (the sentinel
    keys). *)

open Atomicx

type node = { ord : int; next : node Link.t; hdr : Memdom.Hdr.t }

module N = struct
  type t = node

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

let next_of n =
  Memdom.Hdr.check_access n.hdr;
  n.next

let ord_of n =
  Memdom.Hdr.check_access n.hdr;
  n.ord

module Window (O : Intf.CORE with type node = node) = struct
  (* find: walk from [anchor] until curr.ord >= ord, unlinking marked
     nodes on the way.  On return, [curr] (protected) is the candidate
     and the returned link is the predecessor link whose current
     content is [Ptr.view curr] — ready to be used as a CAS
     expectation.  [prev] protects the node that owns that link (or is
     irrelevant when it is the anchor). *)
  let rec find restarts g anchor ord ~prev ~curr ~next =
    let restart () =
      Atomic.incr restarts;
      find restarts g anchor ord ~prev ~curr ~next
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
      else if ord_of c >= ord then (ord_of c = ord, prev_link)
      else begin
        O.advance g prev curr next;
        loop (next_of c)
      end
    in
    O.load g anchor curr;
    loop anchor

  let insert restarts core g anchor ord ~prev ~curr ~next ~into =
    let rec loop fresh =
      let found, prev_link = find restarts g anchor ord ~prev ~curr ~next in
      if found then begin
        Option.iter (O.discard g) fresh;
        false
      end
      else begin
        let n =
          match fresh with
          | Some n -> n
          | None ->
              O.alloc_node_into g into (fun hdr ->
                  { ord; next = O.new_link_v g Link.v_null; hdr })
        in
        (* point the private node at curr, then CAS *)
        O.store_v g n.next (O.Ptr.view curr);
        if
          O.cas_v g prev_link ~expected:(O.Ptr.view curr)
            ~desired:(O.v_ptr core n)
        then true
        else begin
          Atomic.incr restarts;
          loop (Some n)
        end
      end
    in
    loop None

  let delete restarts g anchor ord ~prev ~curr ~next =
    let rec loop () =
      let found, prev_link = find restarts g anchor ord ~prev ~curr ~next in
      if not found then false
      else begin
        let c = O.Ptr.node_exn curr in
        O.load g (next_of c) next;
        if O.Ptr.is_marked next then begin
          Atomic.incr restarts;
          loop ()
        end
        else begin
          (* a found node precedes the tail — next must have a target *)
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
            then ignore (find restarts g anchor ord ~prev ~curr ~next);
            true
          end
          else begin
            Atomic.incr restarts;
            loop ()
          end
        end
      end
    in
    loop ()
end

module type S = sig
  include Intf.SET

  val restarts : t -> int
end

module Impl (O : Intf.CORE with type node = node) = struct
  module W = Window (O)

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
  let core t = t.orc
  let anchor t = t.head.next

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("michael_list/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let sentinel ord next =
          O.alloc_node_into g (O.ptr g) (fun hdr ->
              { ord; next = O.new_link_v g next; hdr })
        in
        let tail = sentinel max_int Link.v_null in
        let head = sentinel min_int (O.v_ptr orc tail) in
        let head_root = O.new_link_v g (O.v_ptr orc head) in
        let tail_root = O.new_link_v g (O.v_ptr orc tail) in
        { head; tail; head_root; tail_root; orc; alloc; restarts = Atomic.make 0 })

  let restarts t = Atomic.get t.restarts

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Michael_list: key must be strictly inside (min_int, max_int)"

  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
        fst (W.find t.restarts g (anchor t) key ~prev ~curr ~next))

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    W.insert t.restarts t.orc g (anchor t) key ~prev ~curr ~next
      ~into:(O.ptr g)

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    W.delete t.restarts g (anchor t) key ~prev ~curr ~next

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
            walk (if deleted then acc else ord_of nx :: acc) nx
    in
    walk [] t.head

  let size t = List.length (to_list t)
  let destroy t = O.release_roots t.orc [ t.head_root; t.tail_root ]
  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end

module Make () = Impl (Orc_core.Orc.Make (N))
