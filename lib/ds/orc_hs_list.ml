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

    Everything else — sentinels, [add], [remove] and the window they
    run — is {!Orc_michael_list.Impl}'s. *)

open Orc_michael_list

module Impl (O : Intf.CORE with type node = node) = struct
  include Orc_michael_list.Impl (O)

  (* Wait-free lookup: one forward pass, straight through marked nodes,
     no restart, no helping.  The walk is top-level and the body runs
     under [O.with_guard2], so a lookup allocates nothing.  At the
     key's node the mark is read from the word of its [next] link,
     whose target is not protected (the rule {!Window} follows): only
     the mark is needed, and a hop protects the successor it moves
     to. *)
  let rec walk g curr next key =
    let c = O.Ptr.node_exn curr in
    if ord_of c > key then false
    else if c.ord = key then
      not (Atomicx.Link.v_is_marked (Atomicx.Link.view (next_link c)))
    else begin
      O.load g (next_link c) next;
      O.assign g curr next;
      walk g curr next key
    end

  let contains_in g t key =
    let curr = O.ptr g and next = O.ptr g in
    O.load g (anchor t) curr;
    walk g curr next key

  let contains t key =
    check_key key;
    O.with_guard2 (core t) contains_in t key
end

module Make () = Impl (Orc_core.Orc.Make (N))
