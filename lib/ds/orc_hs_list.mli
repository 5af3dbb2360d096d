(** Herlihy & Shavit's nonblocking list with wait-free lookups [15]:
    {!Orc_michael_list.Impl} with its own [contains], which walks
    straight through marked nodes without restarting.  That requires
    removed nodes' pointers to stay valid (obstacle 2) — under OrcGC a
    removed node's outgoing hard link persists until the node itself is
    reclaimed. *)

(** The list over an automatic core only ([Orc_core.Orc.Make] or
    [Orc_core.Orc.Make_hp]): [contains] dereferences nodes reached
    through marked, possibly already unlinked, nodes, which a manual
    scheme may have freed (paper obstacle 2).  Never instantiate it
    over {!Manual_core}. *)
module Impl (_ : Intf.CORE with type node = Orc_michael_list.node) :
  Orc_michael_list.S

module Make () : Orc_michael_list.S
