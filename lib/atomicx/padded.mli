(** False-sharing control for arrays of atomics.

    OCaml gives no layout control, and a spacer allocated between two
    atomics does not keep them apart: it dies, and the first minor
    collection promotes the survivors next to each other, so plain
    [Atomic.t] cells end up 16 bytes apart.  {!atomic_array} instead
    makes each cell one 16-word block read and written as an atomic
    through its first field, so no two cells share a cache line after
    promotion either.  Semantics are those of
    [Array.init n (fun _ -> Atomic.make v)]. *)

val atomic_array : int -> 'a -> 'a Atomic.t array
(** [atomic_array n v]: [n] atomics initialized to [v], each in its own
    cache-line-sized block — for per-thread cells written by different
    threads ({!Shard}'s counters). *)

val atomic_matrix : int -> int -> 'a -> 'a Atomic.t array array
(** [atomic_matrix rows cols v]: the [hp.(tid).(idx)] shape used by the
    schemes, with plain atomics: rows and cells stay packed, which is
    what a scanner walking every row wants. *)
