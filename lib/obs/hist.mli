(** Log-linear latency histograms, sharded per thread.

    Recording touches only the calling thread's lazily-created shard
    (single writer, like {!Ring} and [Atomicx.Shard]), so the hot paths
    the benchmarks measure stay uncontended; {!report} merges the
    registered shards on read.  Values below 8 get a bucket each, and
    every octave [[2^e, 2^(e+1))] above splits into 8 equal buckets, so
    a bucket's lower edge is within 12.5% below any value it holds —
    fine enough to show a retire→free latency move by a fraction of an
    octave, over a range that spans orders of magnitude. *)

type t

val create : unit -> t

val record : t -> tid:int -> int -> unit
(** Record a non-negative sample (negatives clamp to 0) into the
    caller's shard.  [tid] must be the caller's registry id. *)

val bucket_of : int -> int
(** Bucket index of a non-negative value: the value itself below 8;
    above, 8 per octave, by the three bits under the highest set
    bit. *)

val bucket_floor : int -> int
(** Smallest value landing in bucket [b]. *)

type report = {
  count : int;
  mean : float;
  p50 : int;
      (** bucket-floor estimate: within 12.5% below the true p50 *)
  p99 : int;
  p999 : int;
      (** p99.9, for SLO reporting.  Like every quantile here it is a
          bucket-floor estimate, except when the rank lands in the top
          occupied bucket: there the estimate interpolates toward the
          exact {!max}, so saturating the top bucket no longer pins the
          tail quantiles at the bucket floor. *)
  max : int;  (** exact *)
  by_bucket : (int * int) list;  (** (bucket floor, count), non-empty only *)
}

val report : t -> report
(** Merge the shards and summarize.  Concurrent with writers the view is
    exact to within one in-flight sample per thread (same caveat as
    [Atomicx.Shard.get]). *)

val count : t -> int
val pp : ?unit_label:string -> Format.formatter -> t -> unit
val report_to_json : report -> Json.t
val to_json : t -> Json.t
