(** Michael's lock-free list with OrcGC — same algorithm as
    {!Michael_list} with type annotations only; unlinking drops the
    node's last hard link and OrcGC reclaims it once unprotected.
    Word views and the unboxed uid hazard plane keep a clean traversal
    allocation-free. *)

module Make () : sig
  include Intf.SET

  val restarts : t -> int
  (** Traversal restarts (window-validation failures and lost CAS races)
      since [create] — whitebox visibility into contention for tests and
      the pack benchmark. *)
end
