(** Harris's original lock-free linked list [12] — the paper's
    obstacle-2 example: searches traverse *through* marked nodes and
    whole marked chains are excised by one CAS, so no retire call can be
    placed; manual schemes are inapplicable.  Under OrcGC the excision
    CAS starts a destructor cascade down the chain.  No algorithmic
    modification.  Its sentinels, [create] and teardown are
    {!Orc_michael_list.Impl}'s. *)

(** The list over an automatic core only ([Orc_core.Orc.Make] or
    [Orc_core.Orc.Make_hp]): the search dereferences nodes reached
    through marked, possibly already excised, nodes, and one CAS
    unlinks a whole chain, so a manual scheme has no point at which to
    retire a node (paper obstacle 2).  Never instantiate it over
    {!Manual_core}.  A warm [contains] allocates nothing. *)
module Impl (_ : Intf.CORE with type node = Orc_michael_list.node) : Intf.SET

module Make () : Intf.SET
