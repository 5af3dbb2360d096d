(** Live gauge/counter registry: the name-indexed side of the metrics
    plane.

    A registry holds named {e sources} — sharded counters, set-style
    gauges and probe closures — each carrying Prometheus-style labels
    (e.g. [("scheme", "orc")]).  The background domain
    ([Reclaim.Reclaimer]) calls {!sample} periodically; each pass reads
    every live source, aggregates sources sharing a (name, labels)
    identity by summing them, and appends the aggregate to a
    ring-buffered time series with a monotone high-water mark.  {!to_prometheus} and {!to_json} expose
    the current series.

    {b Hot-path cost.}  Updating a handle never touches the registry:
    counters are [Atomicx.Shard]s (uncontended per-thread cells), gauge
    {!set} is one atomic store plus a CAS-max, and probes cost nothing
    until sampled.  None of these allocate — the acceptance gate for the
    guard/retire paths that carry them.

    {b Lifetime.}  Probe closures are held {b weakly}, the same contract
    as [Atomicx.Registry.on_quarantine]: the caller keeps the closure
    reachable (schemes store it in their own record), and a collected
    probe silently drops out of the aggregate.  Counters and gauges are
    held strongly by the registry that created them. *)

type t

val create : ?history:int -> unit -> t
(** A fresh registry; [history] (default 240) bounds the per-series
    sample ring. *)

val default : t
(** The process-wide registry the schemes and the allocator register
    into when none is passed explicitly. *)

(** {2 Sources} *)

val counter : t -> ?labels:(string * string) list -> string -> Atomicx.Shard.t
(** Find-or-create the sharded counter with this identity; call sites
    asking for the same (name, labels) share one shard.  Update with
    [Shard.add]/[Shard.incr] directly. *)

type gauge

val gauge : t -> ?labels:(string * string) list -> string -> gauge
(** Find-or-create a gauge (deduplicated like {!counter}). *)

val set : gauge -> int -> unit
(** Store the gauge's current value and fold it into its set-time
    high-water mark.  Allocation-free. *)

val probe :
  t ->
  ?labels:(string * string) list ->
  ?counter:bool ->
  string ->
  (unit -> int) ->
  unit
(** Register a probe read at every {!sample}.  Never deduplicated — each
    registration is one source and sampling sums the live sources with
    the same identity.  Held weakly: {b the caller must keep [f]
    reachable} for as long as it wants the probe sampled.  A probe that
    raises contributes 0.  [counter] (default false) only affects the
    exported Prometheus TYPE — set it when [f] reads a monotone
    counter. *)

(** {2 Sampling and exposition} *)

val sample : t -> tick:int -> unit
(** One sampling pass: drop collected probes, read every source, sum by
    (name, labels), append [(tick, sum)] to each series ring and raise
    its high-water mark.  Called by the background domain; safe from any
    thread but intended to have a single caller. *)

type series = {
  name : string;
  labels : (string * string) list;
  is_counter : bool;
  last : int;  (** aggregate at the most recent sample *)
  hwm : int;  (** monotone max over all samples (and gauge set-time peaks) *)
  points : (int * int) array;  (** (tick, value), oldest first *)
}

val series : t -> series list
(** Snapshot of every aggregated series, in first-sampled order. *)

val clear : t -> unit
(** Drop all sources and series (test isolation). *)

val to_prometheus : t -> string
(** Prometheus text exposition of every series' latest value, plus a
    [<name>_hwm] companion gauge per series. *)

val series_to_json : series -> Json.t
val to_json : t -> Json.t
