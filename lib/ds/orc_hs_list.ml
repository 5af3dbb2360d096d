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
     no restart, no helping.  The hop reads the node's fields itself:
     dune's default profile compiles modules opaque, so a call to
     [Orc_michael_list.ord_of] would be an indirect call per hop. *)
  let contains t key =
    check_key key;
    O.with_guard (core t) (fun g ->
        let curr = O.ptr g and next = O.ptr g in
        O.load g (anchor t) curr;
        let rec walk () =
          let c = O.Ptr.node_exn curr in
          Memdom.Hdr.check_access c.hdr;
          if c.ord > key then false
          else begin
            O.load g c.next next;
            if c.ord = key then not (O.Ptr.is_marked next)
            else begin
              O.assign g curr next;
              walk ()
            end
          end
        in
        walk ())
end

module Make () = Impl (Orc_core.Orc.Make (N))
