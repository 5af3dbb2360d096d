(** Michael–Scott lock-free queue [20] over a manual reclamation scheme
    (HP, PTB, EBR, HE, IBR, PTP, Leak).  The same source as
    {!Orc_ms_queue}, run over {!Manual_core}: the CAS that swings
    [head] past the old sentinel retires it. *)

module Make (V : sig
  type t
end)
(R : Reclaim.Scheme_intf.MAKER) : Intf.QUEUE with type item = V.t
