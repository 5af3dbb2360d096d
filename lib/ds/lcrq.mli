(** LCRQ — Morrison & Afek's linked concurrent ring queue [21] over a
    manual reclamation scheme.  The same source as {!Orc_lcrq}, run over
    {!Manual_core}: the reclamation unit is the segment, retired by the
    CAS that swings the queue head past it.  FAA-based structures like
    this are outside the normalized form required by FreeAccess/AOA
    (§2). *)

module Make (V : sig
  type t
end)
(R : Reclaim.Scheme_intf.MAKER) : Intf.QUEUE with type item = V.t
