(** Herlihy–Shavit lock-free skip list with OrcGC (paper §5).

    [contains] never restarts and traverses the frozen forward pointers
    of removed nodes, so removed nodes can chain to each other — the
    key-bounded unreclaimed-memory behaviour the paper measures against
    CRF-skip.  See {!Skiplist_base}.

    [Impl] runs over an automatic core only ([Orc_core.Orc.Make] or
    [Orc_core.Orc.Make_hp]), never over {!Manual_core}: [contains]
    walks through removed nodes, and a half-removed node can be
    re-encountered, so no point exists at which a manual scheme could
    retire one (paper obstacle 3). *)

module Impl =
  Skiplist_base.Impl (struct
    let poison = false
    let max_level = 14
  end)

module Make () = Impl (Orc_core.Orc.Make (Skiplist_base.N))
