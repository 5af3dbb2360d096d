(** Deterministic YCSB-style workload generation for the KV-service
    benchmark: key distributions (uniform, zipfian, hotspot) and
    read/update operation mixes.

    Every generator is seeded explicitly from {!Atomicx.Rng} — there is
    no ambient randomness anywhere, so a run is reproducible from its
    master seed: give each worker its own [t] with
    [create dist ~n ~seed:(master lxor (worker_index * some_odd))] and
    the whole benchmark replays bit-for-bit. *)

type t
(** One worker's generator: owns a private {!Atomicx.Rng} stream. *)

val default_theta : float
(** 0.99 — YCSB's zipfian constant. *)

type dist =
  | Uniform
  | Zipfian of { theta : float }
      (** Zipf-distributed ranks over [0, n); [theta] in (0, 1),
          conventionally {!default_theta}.  Rank frequencies follow
          1/rank^theta. *)
  | Hotspot of { hot_set : float; hot_ops : float }
      (** [hot_set] fraction of the keyspace receives [hot_ops]
          fraction of the draws, uniform within each region. *)

val create : dist -> n:int -> seed:int -> t
(** Generator over the keyspace [0, n).  A zipfian generator relabels
    ranks through a stateless SplitMix64 mix so the hot keys scatter
    across the keyspace instead of clustering at 0,1,2,... — YCSB's
    ScrambledZipfian.  Zeta normalization is precomputed here: O(n)
    once, nothing per draw. *)

val next : t -> int
(** Draw a key in [0, n). *)

(** {2 Operation mixes} *)

type op = Read | Update

type mix = { label : string; read_pct : int }

val mix_a : mix
(** YCSB-A: 50% read / 50% update. *)

val mix_b : mix
(** YCSB-B: 95% read / 5% update. *)

val next_op : t -> mix -> op
(** Draw the next operation kind from the worker's own stream. *)
