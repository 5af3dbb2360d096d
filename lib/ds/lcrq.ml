(** The LCRQ of {!Orc_lcrq} over a manual reclamation scheme, through
    {!Manual_core}. *)

module Make (V : sig
  type t
end)
(R : Reclaim.Scheme_intf.MAKER) =
  Orc_lcrq.Impl (V) (Manual_core.Make (R) (Orc_lcrq.Node (V)))
