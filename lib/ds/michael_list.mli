(** Michael's lock-free linked-list set [18] ("Michael-Harris" in the
    paper's figures) over a manual reclamation scheme — the one list of
    the paper's four that manual schemes {e can} handle.  The same
    source as {!Orc_michael_list}, run over {!Manual_core}: each handle
    an operation holds takes its own hazard index (four at most — prev,
    curr, next and the node an [add] allocates), and a traversal hop
    permutes the window's three instead of copying protections.  Keys
    must lie strictly between [min_int] and [max_int]. *)

module Make (R : Reclaim.Scheme_intf.MAKER) : Orc_michael_list.S
