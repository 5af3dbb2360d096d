(** Background sampler domain: the heartbeat of the metrics plane.

    [start ()] spawns one domain that, every [interval] seconds,
    advances the {!Watchdog} tick, runs a {!Metrics.sample} pass over
    the registry (snapshotting every scheme's stats probes, the
    allocator economy and the thread-registry population into their
    time series), and runs {!Watchdog.check} — each validated stall
    increments the [orcgc_stalls_total] counter and emits a [Stall]
    event into [sink].

    The sampler owns a registry slot ([Registry.with_tid]) like any
    worker, so its own counter bumps ride the ordinary sharded paths.
    Sampling reads are exact to within one in-flight delta per thread
    (the [Shard.get] contract) — the plane observes the hot paths, it
    never synchronizes with them. *)

type t

val start :
  ?interval:float ->
  ?registry:Metrics.t ->
  ?sink:Sink.t ->
  ?stall_age:int ->
  unit ->
  t
(** Spawn the sampler domain.  [interval] defaults to 0.01 s,
    [registry] to {!Metrics.default}, [sink] to {!Sink.null},
    [stall_age] (ticks before a guard counts as stalled) to 3.  The
    sampler only reports stalls; a neutralizing [Reclaim.Reclaimer]
    reacts to them. *)

val stop : t -> unit
(** Signal and join the domain; returns once the final pass finished.
    The global watchdog tick keeps its value — guard paths stay in
    stamping mode for the rest of the process. *)

val ticks : t -> int
(** Completed sampler passes. *)

val stalls : t -> int
(** Total validated stall reports emitted so far. *)
