(** CRF-skip — the paper's new lock-free skip list (§5).

    Once a removed node is unlinked from every level its forward
    pointers are poisoned, isolating it completely: searches restart on
    poison (contains becomes lock-free rather than wait-free) and the
    severed hard links keep the unreclaimed-object count linear instead
    of key-bounded.  See {!Skiplist_base}.

    [Impl] runs over an automatic core only ([Orc_core.Orc.Make] or
    [Orc_core.Orc.Make_hp]), never over {!Manual_core}: until it meets
    poison, a search still steps through marked nodes to successors
    that may already be unlinked, which a manual scheme could have
    freed (paper obstacle 2). *)

module Impl =
  Skiplist_base.Impl (struct
    let poison = true
    let max_level = 14
  end)

module Make () = Impl (Orc_core.Orc.Make (Skiplist_base.N))
