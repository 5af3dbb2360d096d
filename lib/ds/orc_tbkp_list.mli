(** Wait-free linked list in the style of Timnat, Braginsky, Kogan &
    Petrank [27]: per-thread operation descriptors, phase numbers,
    bounded helping; remove ownership via a claim word in the victim.
    The insert idempotency machinery is simplified on top of the
    substrate's ABA-free stamped-word CAS (DESIGN.md §6.5); a stalled
    insert's progress degrades to lock-free, lookups stay wait-free. *)

type node
(** A list node, which doubles as an operation descriptor. *)

module N : Orc_core.Orc.NODE with type t = node

(** The list over an automatic core only ([Orc_core.Orc.Make] or
    [Orc_core.Orc.Make_hp]): a node is referenced from the list {e and}
    from the descriptors that helpers copy and replace in any order, so
    no thread can tell when its last reference goes — no program point
    exists for a manual scheme's retire (paper obstacle 1).  Never
    instantiate it over {!Manual_core}. *)
module Impl (_ : Intf.CORE with type node = node) : Intf.SET

module Make () : Intf.SET
