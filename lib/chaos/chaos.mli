(** Chaos harness for domain-lifecycle robustness.

    Spawns waves of short-lived domains — far more than
    {!Atomicx.Registry.max_threads} over a run — that hammer a shared
    table of nodes through a reclamation scheme while dying at
    randomized, adversarial points: inside a guard with protections
    published, right after retiring, after a burst of retires that has
    not been scanned yet, or abruptly ({!Atomicx.Registry.abandon}, so
    the slot is left Active with hazards up until the controller
    force-releases it).

    The harness asserts the lifecycle contract end to end: no
    [Use_after_free] / [Double_free] / [Too_many_threads], every retired
    object reclaimed once the run quiesces, and the registry's slot
    recycling + orphan adoption keeping memory bounded across arbitrary
    churn.  One battery per scheme. *)

type cfg = {
  waves : int;  (** join point between spawn bursts *)
  domains_per_wave : int;
      (** concurrent short-lived domains per wave (plus the controller) *)
  ops : int;  (** table operations attempted per domain *)
  kill_every : int;
      (** mean ops between kill events inside one domain; [0] disables
          killing entirely (pure churn) *)
  burst : int;  (** retire-burst size for the die-with-backlog kill *)
  slots : int;  (** width of the shared node table *)
  seed : int;  (** master seed; every domain derives its own stream *)
  sink : Obs.Sink.t;  (** receives retire/orphan/adopt/... events *)
}

val default : cfg
(** 20 waves x 8 domains x 120 ops, kill roughly every 40 ops.  One
    battery spawns 160 domains. *)

(** What one battery observed. *)
type report = {
  name : string;  (** scheme name *)
  domains : int;  (** domains spawned *)
  killed : int;  (** domains that died at a kill point *)
  abandoned : int;  (** of those, abrupt deaths (slot left Active) *)
  force_released : int;  (** abandoned slots reclaimed by the controller *)
  peak_unreclaimed : int;  (** max [S.unreclaimed] sampled at wave joins *)
  leaked : int;  (** [Alloc.live] after quiesce + flush — must be 0 *)
  unreclaimed_after : int;  (** [S.unreclaimed] after quiesce — must be 0 *)
  orphaned_after : int;  (** orphan-pool residue after quiesce — must be 0 *)
  pool_hits : int;  (** recycled hand-outs (0 for System batteries) *)
  pool_misses : int;  (** fresh builds under Pool mode *)
  remote_frees : int;  (** frees routed via a transfer stack *)
  errors : string list;
      (** unexpected exceptions from workers ([Use_after_free],
          [Too_many_threads], ...) — must be empty *)
}

val ok : report -> bool
(** No errors, nothing leaked, nothing left unreclaimed or orphaned,
    and every abandoned slot force-released. *)

val pp_report : Format.formatter -> report -> unit

val batteries : (string * (cfg -> report)) list
(** One battery per scheme: hp, ptb, ebr, he, ibr, ptp (manual
    protect/retire API) and orc, orc-hp (automatic guard API; their
    kill points are exceptions and between-guard abandons, since
    [with_guard] scopes cannot be skipped).  The hp-pool, ptp-pool and
    orc-pool batteries re-run a representative subset over a
    type-stable [Memdom.Alloc.Pool] allocator, so domain churn also
    exercises header recycling, remote frees, and the pool's own
    quarantine→orphan hand-off. *)

val run : string -> cfg -> report
(** Run the named battery.  Raises [Not_found] on an unknown name. *)

(** {2 Stalled guard}

    The stall battery parks a domain inside a guard pinning a table
    node while churners retire and scan inline, beside a neutralizing
    {!Reclaim.Reclaimer}.  It asserts that the domain reports the stall
    and expires the guard in the same pass, that the watchdog stops
    flagging the victim and the pinned node frees while the victim is
    still parked, that two domains killed abruptly inside a guard while
    the stall ages are force-released, and that the waking victim's
    next protection acquisition raises [Neutralized].  Every wait has a
    deadline: a timeout is a failed field and an error, never a hang. *)

type stall_report = {
  st_victim : int;  (** the parked domain's slot; -1 if it never parked *)
  st_ticks : int;  (** background passes completed *)
  st_stalls : int;  (** validated stall reports emitted *)
  st_age_max : int;  (** oldest age (in ticks) the victim was reported at *)
  st_detected : bool;
      (** a [Stall] event named the victim at an age of at least the
          stall age *)
  st_neutralized : bool;
      (** a [Neutralize] event named the victim after that [Stall]
          event *)
  st_cleared : bool;
      (** the watchdog stopped flagging the neutralized victim while it
          was still parked *)
  st_pinned_freed : bool;
      (** the node the stalled guard pinned was freed, victim still
          parked *)
  st_victim_raised : bool;
      (** the waking victim's protection acquisition raised
          [Neutralized] *)
  st_kills : int;
      (** domains killed abruptly inside a guard while the stall aged *)
  st_forced : int;  (** of those, slots reclaimed by force-release *)
  st_unreclaimed_after : int;  (** after quiesce — must be 0 *)
  st_leaked : int;  (** [Alloc.live] after quiesce — must be 0 *)
  st_errors : string list;  (** worker exceptions and timed-out waits *)
}

val stall_ok : stall_report -> bool
(** No errors, every asserted event observed, every killed slot
    force-released, nothing leaked or left unreclaimed. *)

val pp_stall_report : Format.formatter -> stall_report -> unit

val run_stall : unit -> stall_report
(** Run the battery: a 2 ms background domain, a stall age of 3
    ticks, two churners. *)

(** {2 Split-ordered map growth}

    The directory-doubling battery: insert-heavy churn over
    {!Ds.Orc_split_map} (and {!Ds.Split_map} over HP) forces repeated
    doublings while domains die right after witnessing one — sometimes
    abruptly, slot left Active — so the freshly split buckets'
    directory entries are still uninitialized when their initializer
    vanishes.  Survivors must complete the lazy recursive bucket
    initialization, adopt the dead domains' retire backlogs, and leave
    the quiesced map structurally intact with zero leaks. *)

type split_report = {
  sp_name : string;
  sp_domains : int;  (** domains spawned *)
  sp_killed : int;  (** domains that died at a kill point *)
  sp_mid_grow : int;  (** of those, deaths right after a doubling *)
  sp_abandoned : int;  (** abrupt deaths (slot left Active) *)
  sp_force_released : int;  (** abandoned slots reclaimed *)
  sp_grows : int;  (** directory doublings across the storm *)
  sp_buckets : int;  (** final bucket count *)
  sp_size : int;  (** surviving keys at quiesce *)
  sp_invariant : bool;  (** structural check after the storm *)
  sp_sorted : bool;  (** [to_list] strictly increasing, no duplicates *)
  sp_leaked : int;  (** [Alloc.live] after destroy + flush — must be 0 *)
  sp_unreclaimed_after : int;  (** after quiesce — must be 0 *)
  sp_errors : string list;
}

val split_ok : split_report -> bool
(** No errors, ≥3 doublings with ≥1 mid-grow death, invariant and
    ordering hold, every abandoned slot force-released, nothing leaked
    or left unreclaimed. *)

val pp_split_report : Format.formatter -> split_report -> unit

val run_split_grow : unit -> split_report list
(** Run the battery over the catalogue's [splitmap-orc] and
    [splitmap-hp] (each report is named so): 6 waves x 6
    domains x 1500 ops over a 2000-key span, a background kill roughly
    every 400 ops on top of the mid-grow deaths. *)
