(** Michael's list of {!Orc_michael_list} over a manual reclamation
    scheme, through {!Manual_core}. *)

module Make (R : Reclaim.Scheme_intf.MAKER) =
  Orc_michael_list.Impl (Manual_core.Make (R) (Orc_michael_list.N))
