(** Turn queue — wait-free MPMC queue in the style of Ramalhete &
    Correia's PPoPP'17 poster [26], with OrcGC.

    A documented *reconstruction* (only the poster abstract is
    published): wait-free turn-ordered helping for both operations;
    dequeues are served through a claim/deliver/advance protocol on the
    delivered node.  See DESIGN.md §6.4 for the races the protocol
    closes. *)

module Node (V : sig
  type t
end) : Orc_core.Orc.NODE
(** The queue's node over items of type [V.t]: a queue node, a request
    token or an empty marker. *)

(** The queue over an automatic core only ([Orc_core.Orc.Make] or
    [Orc_core.Orc.Make_hp]): nodes live in queue links, three request
    arrays and claim links at once, unlinked in orders that helping
    interleavings decide, so a manual scheme has no point at which to
    retire one (paper obstacle 1).  Never instantiate it over
    {!Manual_core}. *)
module Impl
    (V : sig
      type t
    end)
    (_ : Intf.CORE with type node = Node(V).t) : Intf.QUEUE with type item = V.t

module Make (V : sig
  type t
end) : Intf.QUEUE with type item = V.t
