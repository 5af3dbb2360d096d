(** LCRQ, written once against {!Intf.CORE}; see the implementation
    header.  {!Make} runs it under OrcGC, where segment lifetime is
    managed entirely by hard-link counts (head/tail roots + the
    predecessor's [next] link) and there is no retire logic at all.
    {!Lcrq.Make} runs {!Impl} over a manual scheme. *)

module Node (V : sig
  type t
end) : Orc_core.Orc.NODE
(** A ring segment over items of type [V.t]. *)

module Impl
    (V : sig
      type t
    end)
    (_ : Intf.CORE with type node = Node(V).t) : Intf.QUEUE with type item = V.t

module Make (V : sig
  type t
end) : Intf.QUEUE with type item = V.t
