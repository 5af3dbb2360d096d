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
    map ({!Orc_split_map}) anchors it at a bucket dummy's [next].

    Handles hold raw link words ([O.Ptr.view]), window validation
    compares words ([Link.view_eq] — sound because the word's target is
    protected, pinning its arena slot, and the write stamp tells a
    rewritten link apart), and the CASes are word operations.  Keys
    must lie strictly between [min_int] and [max_int] (the sentinel
    keys). *)

open Atomicx

(* The node is its own [next] link ({!Link.embedded}): fields 0 and 1
   are the link word and the arena, so a list hop reads no link
   block.  [word] is 0 ([Null]) in every literal and is otherwise
   touched only through [next_link]. *)
type node = {
  mutable word : int;
  arena : node Link.arena;
  ord : int;
  hdr : Memdom.Hdr.t;
}

let next_link (n : node) : node Link.t = Link.embedded n

module N = struct
  type t = node

  let hdr n = n.hdr
  let iter_links n f = f (next_link n)
end

let next_of n =
  Memdom.Hdr.check_access n.hdr;
  next_link n

let ord_of n =
  Memdom.Hdr.check_access n.hdr;
  n.ord

module Window (O : Intf.CORE with type node = node) = struct
  (* find: walk from [anchor] until curr.ord >= ord, unlinking marked
     nodes on the way.  On return, [curr] (protected) is the candidate
     and the returned link is the predecessor link whose current
     content is [Ptr.view curr] — ready to be used as a CAS
     expectation.  [prev] protects the node that owns that link (or is
     irrelevant when it is the anchor).  Every step is a top-level
     function taking its state as arguments, so a find builds no
     closure and returns no tuple.

     [next] is protected only to step to it or to unlink [curr]: a
     find that stops at an unmarked [curr] reads [curr.next]'s word
     for the mark and publishes nothing for its target, so [next]
     holds no meaningful view on return.  The protection, when taken,
     is sound by the link-word stamp: [nv] is read, then [curr] is
     validated as still linked, then [next] is loaded.  A load that
     finds [curr.next] still [view_eq] to [nv] saw no write to it in
     between.  When [nv] is unmarked, [curr] was therefore never
     marked in that span, hence still linked (a node is marked before
     it is unlinked), so [next] was reachable when its hazard went up.
     When [nv] is marked, the unlink CAS that follows succeeds only if
     [prev_link] still holds [curr]'s stamped word, i.e. [curr] stayed
     linked through the load; a lost CAS restarts without reading
     [next]. *)
  let rec find restarts g anchor ord ~prev ~curr ~next =
    O.load g anchor curr;
    find_from restarts g anchor ord ~prev ~curr ~next anchor

  and find_from restarts g anchor ord ~prev ~curr ~next prev_link =
    let c = O.Ptr.node_exn curr in
    (* [next_of] checks [c] is not freed, which covers [c.ord] below *)
    let nv = Link.view (next_of c) in
    if not (Link.view_eq (Link.view prev_link) (O.Ptr.view curr)) then
      restart restarts g anchor ord ~prev ~curr ~next
    else if (not (Link.v_is_marked nv)) && c.ord >= ord then prev_link
    else begin
      O.load g (next_link c) next;
      if not (Link.view_eq (O.Ptr.view next) nv) then
        (* curr.next moved since [nv]: look again from the same curr
           (not a restart — the window is still validated) *)
        find_from restarts g anchor ord ~prev ~curr ~next prev_link
      else step restarts g anchor ord ~prev ~curr ~next prev_link c
    end

  (* [next] holds [c.next]'s target, loaded against [nv]: unlink a
     marked [c] or advance past an unmarked one. *)
  and step restarts g anchor ord ~prev ~curr ~next prev_link c =
    if O.Ptr.is_marked next then begin
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
        find_from restarts g anchor ord ~prev ~curr ~next prev_link
      end
      else restart restarts g anchor ord ~prev ~curr ~next
    end
    else begin
      (* unmarked, so c.ord < ord: find_from returned otherwise *)
      O.advance g prev curr next;
      find_from restarts g anchor ord ~prev ~curr ~next (next_of c)
    end

  and restart restarts g anchor ord ~prev ~curr ~next =
    Atomic.incr restarts;
    find restarts g anchor ord ~prev ~curr ~next

  let found curr ord = ord_of (O.Ptr.node_exn curr) = ord

  (* Point the private node [n] at curr, then CAS it in. *)
  let link_in core g ~curr prev_link n =
    O.store_v g (next_link n) (O.Ptr.view curr);
    O.cas_v g prev_link ~expected:(O.Ptr.view curr) ~desired:(O.v_ptr core n)

  (* Retry an insert whose CAS lost, with the node already allocated. *)
  let rec insert_node restarts core g anchor ord ~prev ~curr ~next n =
    Atomic.incr restarts;
    let prev_link = find restarts g anchor ord ~prev ~curr ~next in
    if found curr ord then begin
      O.discard g n;
      false
    end
    else
      link_in core g ~curr prev_link n
      || insert_node restarts core g anchor ord ~prev ~curr ~next n

  let insert restarts core g anchor ord ~prev ~curr ~next ~into =
    let prev_link = find restarts g anchor ord ~prev ~curr ~next in
    (not (found curr ord))
    &&
    let n =
      O.alloc_node_into g into (fun hdr ->
          { word = 0; arena = O.arena core; ord; hdr })
    in
    link_in core g ~curr prev_link n
    || insert_node restarts core g anchor ord ~prev ~curr ~next n

  let rec delete restarts g anchor ord ~prev ~curr ~next =
    let prev_link = find restarts g anchor ord ~prev ~curr ~next in
    if not (found curr ord) then false
    else begin
      let c = O.Ptr.node_exn curr in
      O.load g (next_of c) next;
      if O.Ptr.is_marked next then begin
        Atomic.incr restarts;
        delete restarts g anchor ord ~prev ~curr ~next
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
          delete restarts g anchor ord ~prev ~curr ~next
        end
      end
    end
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
  let anchor t = next_link t.head

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("michael_list/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let sentinel ord =
          O.alloc_node_into g (O.ptr g) (fun hdr ->
              { word = 0; arena = O.arena orc; ord; hdr })
        in
        let tail = sentinel max_int in
        let head = sentinel min_int in
        O.store_v g (next_link head) (O.v_ptr orc tail);
        let head_root = O.new_link_v g (O.v_ptr orc head) in
        let tail_root = O.new_link_v g (O.v_ptr orc tail) in
        { head; tail; head_root; tail_root; orc; alloc; restarts = Atomic.make 0 })

  let restarts t = Atomic.get t.restarts

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Michael_list: key must be strictly inside (min_int, max_int)"

  (* Each operation's body is a closed function of its guard, so
     [O.with_guard2] runs it without building a closure. *)
  let contains_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    ignore (W.find t.restarts g (anchor t) key ~prev ~curr ~next);
    W.found curr key

  let add_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    W.insert t.restarts t.orc g (anchor t) key ~prev ~curr ~next
      ~into:(O.ptr g)

  let remove_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    W.delete t.restarts g (anchor t) key ~prev ~curr ~next

  let contains t key =
    check_key key;
    O.with_guard2 t.orc contains_in t key

  let add t key =
    check_key key;
    O.with_guard2 t.orc add_in t key

  let remove t key =
    check_key key;
    O.with_guard2 t.orc remove_in t key

  (* Quiesced helpers: the keys of nodes that are reachable and not
     logically deleted. *)
  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get (next_link n)) with
      | None -> List.rev acc
      | Some nx ->
          if nx == t.tail then List.rev acc
          else
            let deleted = Link.is_marked (Link.get (next_link nx)) in
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
