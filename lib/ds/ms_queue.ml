(** The Michael–Scott queue of {!Orc_ms_queue} over a manual
    reclamation scheme, through {!Manual_core}. *)

module Make (V : sig
  type t
end)
(R : Reclaim.Scheme_intf.MAKER) =
  Orc_ms_queue.Impl (V) (Manual_core.Make (R) (Orc_ms_queue.Node (V)))
