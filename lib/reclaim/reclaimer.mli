(** Background reclaimer domain: drains the transfer {!Channel}, fires
    {!Neutralize} on watchdog-validated stalls, and degrades cleanly
    when stopped or killed.

    Clocking is amortized: next to a running [Obs.Sampler] the
    reclaimer rides the sampler's watchdog ticks; standalone it
    advances the clock itself (only when [neutralize_age] is set — a
    pure drain pipeline leaves the guard paths in cheap no-stamp
    mode). *)

type t

val start :
  ?interval:float ->
  ?neutralize_age:int ->
  ?sink:Obs.Sink.t ->
  ?registry:Obs.Metrics.t ->
  Channel.t ->
  t
(** Spawn the reclaimer over [channel].  [interval] (default 2 ms) is
    the pass period.  [neutralize_age], when given, arms
    {!Neutralize} and expires any guard the watchdog validates as
    stalled for that many ticks; omitted, the reclaimer only drains.
    Registers the neutralization probes in [registry] and keeps them
    alive for the handle's lifetime. *)

val stop : t -> unit
(** Graceful shutdown: close the channel (mutators fall back to inline
    from this point), join the domain after its final drain, and adopt
    any straggler job from the calling thread.  After [stop] the
    channel stays closed — zero objects remain queued. *)

val kill : t -> unit
(** Chaos: make the domain exit abruptly — channel left {e open},
    backlog unrecovered, exactly a crashed reclaimer.  Mutator sends
    keep succeeding until the depth bound bites, then fall back
    inline.  Call {!recover} to reconcile; without it the backlog is a
    leak, which is what the kill batteries assert against. *)

val recover : t -> tid:int -> int
(** Post-mortem reconciliation: close the channel, then drain the
    backlog on the calling thread.  Returns objects recovered.
    Idempotent. *)

val alive : t -> bool
(** False once the domain has exited (graceful or killed). *)

val passes : t -> int
(** Completed reclaimer passes (heartbeat). *)

val channel : t -> Channel.t
