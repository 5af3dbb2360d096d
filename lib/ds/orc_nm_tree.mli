(** Natarajan & Mittal's lock-free external BST, written once against
    {!Intf.CORE}; see the implementation header.  {!Make} runs it under
    OrcGC, with no retire logic and no poisoning: a protected node's
    own hard links pin its successors, so traversals into an excised
    region stay safe and the winning CAS's count transfer reclaims the
    whole region by cascade.  {!Nm_tree.Make} runs {!Impl} over a
    manual scheme.  Keys must be < [max_int - 2]. *)

type node

module N : Orc_core.Orc.NODE with type t = node
module Impl (_ : Intf.CORE with type node = node) : Intf.SET
module Make () : Intf.SET
