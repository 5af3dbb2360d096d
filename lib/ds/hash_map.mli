(** Michael's lock-free hash table [18] (same paper as the list) over a
    manual reclamation scheme: the same source as {!Orc_hash_map}, run
    over {!Manual_core} — a fixed-size array of lock-free list buckets
    sharing one scheme instance, one allocator and one tail
    sentinel. *)

val default_buckets : int

module Make (R : Reclaim.Scheme_intf.MAKER) : Intf.SET
