(** The split-ordered map of {!Orc_split_map} over a manual reclamation
    scheme, through {!Manual_core}. *)

let initial_buckets = Orc_split_map.initial_buckets

module Make (R : Reclaim.Scheme_intf.MAKER) = struct
  module C = Manual_core.Make (R) (Orc_michael_list.N)
  include Orc_split_map.Impl (C)

  let stats t = C.stats (core t)
end
