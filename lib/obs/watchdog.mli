(** Guard-stall watchdog: flags registry slots that hold a protection
    scope without progressing.

    A thread parked (or dead without quarantine) inside a guard pins
    every object retired after its protection snapshot — the unbounded
    failure mode the paper's Table-1 bounds assume away.  The watchdog
    makes it observable: each scheme owns a table of per-tid stamp rows;
    {!enter}/{!leave} bracket the scheme's guard hot path and stamp the
    current {e logical tick} (advanced by the background domain,
    [Reclaim.Reclaimer], never a clock syscall) on the outermost entry.
    {!check} walks every live table and reports rows whose stamp has
    aged past a threshold.

    {b Cost when idle.}  The global tick starts at 0 and only the
    background domain advances it, so until a metrics plane starts, {!enter} and
    {!leave} are one shared atomic read and a branch — no stores, no
    allocation.

    {b False positives.}  The watchdog cannot distinguish "parked
    mid-guard" from "legitimately slow": a guard spanning [max_age]
    background passes is flagged even if healthy.  Validation rules out
    the structural liars: a row counts only while its slot is still
    {!Atomicx.Registry.in_use} with the {e same generation} as when it
    stamped, and the quarantine pass clears rows, so recycled slots and
    cleanly-departed domains are never blamed.  An {e abandoned} Active
    slot (death without quarantine) keeps its stamp — exactly the leak
    the watchdog exists to surface. *)

type t

val create : unit -> t
(** A per-scheme stamp table.  Registers a quarantine cleaner and joins
    the process-wide table list; both hold the result {b weakly}, so the
    scheme must keep the returned [t] in its own record (the same
    contract as [Registry.on_quarantine]). *)

val tick : unit -> int
(** The global logical tick; 0 until the background domain first {!advance}s. *)

val advance : unit -> int
(** Bump the global tick (resuming after a {!pause}) and return its new
    value.  Called once per background pass; tests may drive it
    manually. *)

val pause : unit -> unit
(** Return the tick to 0 and clear every row: guard paths go back to
    their idle one-read mode, as before any background domain started.  The next
    {!advance} resumes after the last tick, so sampled series stay
    increasing.  Call only with no background domain running and no guard open
    (a bench alternating plane-off and plane-on rounds in one
    process). *)

val enter : t -> tid:int -> unit
(** Guard acquisition: on the outermost nesting level, stamp the current
    tick and the slot's generation.  No-op while the tick is 0. *)

val leave : t -> tid:int -> unit
(** Guard release: clears the stamp when the outermost level exits. *)

val stall_age_max : t -> int
(** Oldest currently-valid stamp age in this table, in ticks — the
    per-scheme [stall_age_max] gauge.  0 when every row is idle. *)

val check : ?max_age:int -> unit -> (int * int) list
(** [(tid, age)] for every validated row across all live tables whose
    stamp is at least [max_age] (default 3) ticks old, deduplicated by
    tid keeping the oldest age, sorted by tid.  [[]] while the tick
    is 0. *)
