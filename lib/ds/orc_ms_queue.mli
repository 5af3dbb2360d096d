(** Michael–Scott queue (paper Algorithm 1), written once against
    {!Intf.CORE}; see the implementation header.  {!Make} runs it under
    OrcGC, where there is no retire call anywhere: the dequeue swings
    [head] and the old sentinel's count drop reclaims it once
    unprotected.  {!Ms_queue.Make} runs {!Impl} over a manual scheme. *)

module Node (V : sig
  type t
end) : Orc_core.Orc.NODE
(** The queue's node over items of type [V.t]. *)

module Impl
    (V : sig
      type t
    end)
    (_ : Intf.CORE with type node = Node(V).t) : Intf.QUEUE with type item = V.t

module Make (V : sig
  type t
end) : Intf.QUEUE with type item = V.t
