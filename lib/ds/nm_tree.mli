(** Natarajan & Mittal's lock-free external BST [22] over a manual
    reclamation scheme.  The same source as {!Orc_nm_tree}, run over
    {!Manual_core}: because excision leaves interior edges untouched,
    hazard validation alone cannot detect a stale traversal, so the
    core's [retire_region] poisons the excised region's edges before
    retiring it (DESIGN.md §6.2) and traversals restart on poison.
    Eight hazard indexes per operation.  Keys must be < [max_int - 2]
    (three infinity sentinels). *)

module Make (R : Reclaim.Scheme_intf.MAKER) : Intf.SET
