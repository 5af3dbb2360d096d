(** SplitMix64 pseudo-random number generator.

    Each worker domain owns an independent stream seeded from a master
    seed and its thread id, so workload generation is deterministic and
    race-free without sharing any state between domains.

    [int], [float] and [bool] allocate nothing: the state is unboxed
    and each draw inlines into its caller. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 64-bit seed. *)

val split : t -> t
(** Derive an independent stream (used to give each domain its own). *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
