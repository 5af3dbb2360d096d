(** {!Intf.CORE} over a manual reclamation scheme — see the
    implementation header.  Each handle a guard creates takes the next
    hazard index (0, 1, ...), so the scheme must be created with
    [max_hps] at least the number of handles one operation holds;
    [ptr] raises [Invalid_argument] beyond that. *)

module Make (R : Reclaim.Scheme_intf.MAKER) (N : Orc_core.Orc.NODE) : sig
  include Intf.CORE with type node = N.t

  val stats : t -> Reclaim.Scheme_intf.stats
  (** The scheme's unified counters. *)
end
