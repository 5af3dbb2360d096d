(** Michael's lock-free hash table, written once against {!Intf.CORE}:
    a fixed array of list buckets sharing one core instance, one
    allocator and one tail sentinel.  {!Make} runs it under OrcGC;
    {!Hash_map.Make} runs {!Impl} over a manual scheme. *)

val default_buckets : int

type node

module N : Orc_core.Orc.NODE with type t = node
module Impl (_ : Intf.CORE with type node = node) : Intf.SET
module Make () : Intf.SET
