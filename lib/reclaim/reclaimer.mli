(** The neutralizing reclaimer domain: fires {!Neutralize} on
    watchdog-validated stalls.  Reclamation itself stays inline on the
    retiring thread under every scheme; this domain only expires the
    guards of stalled readers, DEBRA+'s remedy.

    Clocking is amortized: next to a running [Obs.Sampler] the
    reclaimer rides the sampler's watchdog ticks; standalone it
    advances the clock itself. *)

type t

val start :
  ?interval:float ->
  ?sink:Obs.Sink.t ->
  ?registry:Obs.Metrics.t ->
  neutralize_age:int ->
  unit ->
  t
(** Spawn the reclaimer.  [interval] (default 2 ms) is the pass
    period.  Arms {!Neutralize} and expires any guard the watchdog
    validates as stalled for [neutralize_age] ticks.  Registers the
    neutralization probes in [registry] and keeps them alive for the
    handle's lifetime. *)

val stop : t -> unit
(** Disarm (once per [start]) and join the domain. *)

val alive : t -> bool
(** False once the domain has exited. *)
