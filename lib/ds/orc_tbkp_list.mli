(** Wait-free linked list in the style of Timnat, Braginsky, Kogan &
    Petrank [27], with OrcGC: per-thread operation descriptors, phase
    numbers, bounded helping; remove ownership via a claim word in the
    victim.  The insert idempotency machinery is simplified on top of
    the substrate's ABA-free stamped-word CAS (DESIGN.md §6.5); a stalled
    insert's progress degrades to lock-free, lookups stay wait-free.
    Obstacle 1 applies: nodes are referenced from the list and from
    descriptors. *)

module Make () : Intf.SET
