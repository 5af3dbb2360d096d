(* Stalled-guard neutralization: the reaction half of the watchdog.

   DEBRA+ (Brown, PODC'15) neutralizes a stalled thread with a POSIX
   signal whose handler longjmps the victim back to a checkpoint.  OCaml
   domains have no equivalent, so this is the cooperative analog:

   - [fire] first raises the victim's per-tid pending flag, then bumps
     its registry generation ([Registry.neutralize]), which (a) clears
     the watchdog row (its recorded generation no longer matches), and
     (b) runs each scheme's [on_neutralize] hook, which force-clears the
     victim's {e atomic} protection state — hazard slots, epoch/era
     announcements, parked handovers — so the stalled guard stops
     pinning memory.

   - the victim, whenever it wakes, hits the handshake at its next
     scheme entry point: [check ~tid] (inlined into begin_op /
     get_protected_v / retire) sees the pending flag, acknowledges it,
     and raises {!Neutralized} — the role the signal's longjmp plays in
     DEBRA+.  The operation restarts from scratch, republishing through
     the scheme's ordinary protect loop; any protection validated
     before neutralization is dead (its slot was cleared) and must not
     be trusted.

   The flag-before-bump ordering matters: the hooks clear hazards only
   after the flag is visible, so a victim entering any scheme entry
   point after its hazards were cleared is guaranteed to see the flag.
   The residual window — a victim that validated a protection {e
   before} the flag rose and dereferences it {e before} its next entry
   point — is the cooperative granularity bound (DESIGN.md §14): in
   OCaml it is type-safe (nodes are GC-managed; "free" recycles the
   header, never unmaps), and the link-revalidation protocol every
   scheme already runs bounds the logical damage to a retried op.

   Armed-ness is a global refcount so the mutator-side check costs one
   shared atomic load when no reclaimer is running — the same
   pay-only-when-on shape as the watchdog clock. *)

open Atomicx

exception Neutralized of int

let armed = Atomic.make 0
let pending = Array.init Registry.max_threads (fun _ -> Atomic.make false)
let fired = Shard.create ()
let acked = Shard.create ()

(* Slot recycling must not leak a stale flag to the next owner: clear on
   every quarantine pass.  Module-level binding = strong root, so the
   weak hook entry never evaporates. *)
let quarantine_hook tid = Atomic.set pending.(tid) false
let () = Registry.on_quarantine quarantine_hook

let arm () = Atomic.incr armed

let disarm () =
  let rec dec () =
    let v = Atomic.get armed in
    if v > 0 && not (Atomic.compare_and_set armed v (v - 1)) then dec ()
  in
  dec ()

let enabled () = Atomic.get armed > 0
let is_pending ~tid = Atomic.get pending.(tid)

(* The scheme-side handshake. [check] raises; [ack] is the silent
   variant for entry points that must not raise (end_op runs on
   finalizer paths).  Both are free when no reclaimer is armed. *)
let ack ~tid =
  if Atomic.get armed > 0 && Atomic.get pending.(tid) then begin
    Atomic.set pending.(tid) false;
    Shard.incr acked ~tid
  end

let check ~tid =
  if Atomic.get armed > 0 && Atomic.get pending.(tid) then begin
    Atomic.set pending.(tid) false;
    Shard.incr acked ~tid;
    raise (Neutralized tid)
  end

let fire ?(sink = Obs.Sink.null) ~by ~tid ~age () =
  Atomic.set pending.(tid) true;
  if Registry.neutralize tid then begin
    Shard.incr fired ~tid:by;
    Obs.Sink.on_neutralize sink ~tid:by ~stalled:tid ~age;
    true
  end
  else begin
    (* Not Active (owner released / was force-released concurrently):
       nothing to expire, and the flag must not ambush the slot's next
       owner. *)
    Atomic.set pending.(tid) false;
    false
  end

let neutralizations () = Shard.get fired
let acknowledgements () = Shard.get acked

let pending_count () =
  let n = ref 0 in
  for tid = 0 to Registry.registered () - 1 do
    if Atomic.get pending.(tid) then incr n
  done;
  !n

let register_metrics ?(registry = Obs.Metrics.default) () =
  let counters =
    [
      ("orcgc_neutralizations_total", fun () -> Shard.get fired);
      ("orcgc_neutralize_acks_total", fun () -> Shard.get acked);
    ]
  and gauges = [ ("orcgc_neutralize_pending", pending_count) ] in
  List.iter
    (fun (name, f) -> Obs.Metrics.probe registry ~counter:true name f)
    counters;
  List.iter (fun (name, f) -> Obs.Metrics.probe registry name f) gauges;
  counters @ gauges
