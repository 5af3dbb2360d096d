(** The Natarajan-Mittal tree of {!Orc_nm_tree} over a manual
    reclamation scheme, through {!Manual_core}. *)

module Make (R : Reclaim.Scheme_intf.MAKER) =
  Orc_nm_tree.Impl (Manual_core.Make (R) (Orc_nm_tree.N))
