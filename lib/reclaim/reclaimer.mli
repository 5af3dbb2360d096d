(** The process's one background domain: the heartbeat of the metrics
    plane and, when asked, the neutralizer of stalled guards.

    Every [interval] seconds one pass advances the {!Obs.Watchdog}
    tick, runs {!Obs.Metrics.sample} over the registry (scheme probes,
    allocator economy, thread-registry population) and runs one
    {!Obs.Watchdog.check}.  Each validated stall increments
    [orcgc_stalls_total] and emits a [Stall] event; a neutralizing
    domain then fires {!Neutralize} on it in the same pass (never on
    its own tid), DEBRA+'s remedy.  Reclamation itself stays inline on
    the retiring thread.  The domain owns a registry slot like any
    worker, and its reads never synchronize with the hot paths. *)

type t

val start :
  ?interval:float ->
  ?registry:Obs.Metrics.t ->
  ?sink:Obs.Sink.t ->
  ?stall_age:int ->
  neutralize:bool ->
  unit ->
  t
(** Spawn the domain.  [interval] defaults to 2 ms, [registry] to
    {!Obs.Metrics.default}, [sink] to {!Obs.Sink.null}, [stall_age]
    (watchdog ticks before a guard counts as stalled) to 3.  With
    [~neutralize:true] it arms {!Neutralize}, registers the
    neutralization probes in [registry] and expires every stalled
    guard it reports; with [false] it only reports. *)

val stop : t -> unit
(** Disarm (once, if neutralizing) and join the domain; returns once
    the final pass finished.  The watchdog tick keeps its value: guard
    paths stay in stamping mode until {!Obs.Watchdog.pause}. *)

val alive : t -> bool
(** False once the domain has exited. *)

val ticks : t -> int
(** Completed passes. *)

val stalls : t -> int
(** Validated stall reports emitted so far. *)
