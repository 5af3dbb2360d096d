(** Split-ordered resizable lock-free hash map over a manual
    reclamation scheme: the same source as {!Orc_split_map}, run over
    {!Manual_core}.  See {!Orc_split_map} for the algorithm and
    {!Split_order} for the key encoding. *)

val initial_buckets : int
(** 2 — every map starts at two buckets and doubles on demand. *)

module Make (_ : Reclaim.Scheme_intf.MAKER) : sig
  include Orc_split_map.MAP

  val stats : t -> Reclaim.Scheme_intf.stats
  (** The scheme's unified counters — [retires] counts exactly the
      successful [remove]s, because dummies are never retired. *)
end
