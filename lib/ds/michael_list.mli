(** Michael's lock-free linked-list set [18] ("Michael-Harris" in the
    paper's figures), parameterized by a manual reclamation scheme — the
    one list of the paper's four that manual schemes *can* handle.

    Hazard indexes: 0 = curr, 1 = next, 2 = prev.  The traversal runs on
    the link view plane and validates by word equality, write stamp
    included (strictly stronger than the C++ word comparison), sound
    because the word's target is hazard-protected and a protected node's
    arena slot cannot be recycled.  Keys must lie strictly between
    [min_int] and [max_int]. *)

module Make (R : Reclaim.Scheme_intf.MAKER) : sig
  include Intf.SET

  val restarts : t -> int
  (** Traversal restarts (window-validation failures and lost CAS races)
      since [create] — whitebox visibility into contention for tests and
      the pack benchmark. *)
end
