(** Kogan & Petrank's wait-free MPMC queue [17], with OrcGC.

    The paper's obstacle-1 structure (§2): nodes are referenced from
    [head]/[tail] *and* from the helping descriptor array, with unlink
    orders depending on the interleaving — no manual scheme in Table 1
    applies; OrcGC handles it with annotations alone.  Operation
    descriptors are themselves OrcGC-tracked objects. *)

module Node (V : sig
  type t
end) : Orc_core.Orc.NODE
(** The queue's node over items of type [V.t], which doubles as an
    operation descriptor. *)

(** The queue over an automatic core only ([Orc_core.Orc.Make] or
    [Orc_core.Orc.Make_hp]): with no program point at which a node's
    last reference goes (obstacle 1), a manual scheme cannot place its
    retire.  Never instantiate it over {!Manual_core}. *)
module Impl
    (V : sig
      type t
    end)
    (_ : Intf.CORE with type node = Node(V).t) : Intf.QUEUE with type item = V.t

module Make (V : sig
  type t
end) : Intf.QUEUE with type item = V.t
