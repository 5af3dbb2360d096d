(** Michael's lock-free list, written once against {!Intf.CORE}; see
    the implementation header.  {!Make} runs it under OrcGC, where
    unlinking drops the node's last hard link and OrcGC reclaims it
    once unprotected; {!Michael_list.Make} runs {!Impl} over a manual
    scheme. *)

type node

module N : Orc_core.Orc.NODE with type t = node

module type S = sig
  include Intf.SET

  val restarts : t -> int
  (** Traversal restarts (window-validation failures and lost CAS races)
      since [create] — whitebox visibility into contention for tests and
      the pack benchmark. *)
end

module Impl (_ : Intf.CORE with type node = node) : S
module Make () : S
