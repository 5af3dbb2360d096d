(** Michael's hash table of {!Orc_hash_map} over a manual reclamation
    scheme, through {!Manual_core}. *)

let default_buckets = Orc_hash_map.default_buckets

module Make (R : Reclaim.Scheme_intf.MAKER) =
  Orc_hash_map.Impl (Manual_core.Make (R) (Orc_hash_map.N))
