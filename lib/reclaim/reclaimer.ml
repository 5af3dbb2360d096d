(* The process's one background domain.  A neutralizing pass fires on
   the stalls it has just reported, so each neutralization lines up
   with the [Stall] event that caused it.  It lives here rather than in
   [Obs] because [Obs] cannot call [Neutralize]. *)

open Atomicx

type t = {
  stop_flag : bool Atomic.t;
  dead : bool Atomic.t;
  neutralize : bool;
  ticks_done : int Atomic.t;
  stalls_seen : int Atomic.t;
  domain : unit Domain.t;
  keep : (string * (unit -> int)) list;
}

(* Built-in probes over the thread registry, registered weakly; the
   handle keeps the closures alive. *)
let registry_probes registry =
  let quarantined () =
    let n = ref 0 in
    for tid = 0 to Registry.high_water () - 1 do
      if Registry.slot_state tid = `Quarantined then incr n
    done;
    !n
  in
  let probes =
    [
      ("orcgc_registry_active", Registry.active);
      ("orcgc_registry_high_water", Registry.high_water);
      ("orcgc_registry_quarantined", quarantined);
    ]
  in
  List.iter (fun (name, f) -> Obs.Metrics.probe registry name f) probes;
  probes

let start ?(interval = 0.002) ?(registry = Obs.Metrics.default)
    ?(sink = Obs.Sink.null) ?(stall_age = 3) ~neutralize () =
  let stop_flag = Atomic.make false and dead = Atomic.make false in
  let ticks_done = Atomic.make 0 and stalls_seen = Atomic.make 0 in
  let counter = Obs.Metrics.counter registry "orcgc_stalls_total" in
  let pass tid =
    Obs.Metrics.sample registry ~tick:(Obs.Watchdog.advance ());
    List.iter
      (fun (stalled, age) ->
        Shard.incr counter ~tid;
        Atomic.incr stalls_seen;
        Obs.Sink.on_stall sink ~tid ~stalled ~age;
        if neutralize && stalled <> tid then
          ignore (Neutralize.fire ~sink ~by:tid ~tid:stalled ~age ()))
      (Obs.Watchdog.check ~max_age:stall_age ());
    Atomic.incr ticks_done
  in
  if neutralize then Neutralize.arm ();
  let keep =
    registry_probes registry
    @ if neutralize then Neutralize.register_metrics ~registry () else []
  in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set dead true)
          (fun () ->
            Registry.with_tid @@ fun tid ->
            while not (Atomic.get stop_flag) do
              Unix.sleepf interval;
              pass tid
            done))
  in
  { stop_flag; dead; neutralize; ticks_done; stalls_seen; domain; keep }

let stop t =
  if (not (Atomic.exchange t.stop_flag true)) && t.neutralize then
    Neutralize.disarm ();
  Domain.join t.domain;
  ignore (Sys.opaque_identity t.keep)

let alive t = not (Atomic.get t.dead)
let ticks t = Atomic.get t.ticks_done
let stalls t = Atomic.get t.stalls_seen
