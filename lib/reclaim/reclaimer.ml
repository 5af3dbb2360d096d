(* The background reclaimer domain: consumes the transfer channel,
   neutralizes validated stalls, and dies gracefully.

   Each pass: drain the channel (running the queued scan jobs on this
   domain's own registry tid — every scheme's scan touches only
   operating-tid-local scratch plus global atomics, so a batch retired
   by tid 3 reclaims fine under the reclaimer's tid); then, when
   neutralization is configured, run a watchdog check and fire on every
   validated stall.

   Clocking is amortized onto whoever is already ticking: if an
   [Obs.Sampler] is advancing the watchdog clock, the reclaimer rides
   its ticks; if the tick did not move since the last pass (no sampler),
   the reclaimer advances it itself.  Neutralization therefore works
   standalone, and never double-clocks next to a live metrics plane.

   Death is part of the contract.  [stop] closes the channel first —
   every in-flight mutator send from then on refuses and reclaims
   inline — then joins and recovers the backlog.  [kill] is the chaos
   path: the domain exits abruptly, channel left open and backlog
   unrecovered, exactly what a crashed reclaimer looks like; mutators
   degrade via the depth bound, and [recover] reconciles the backlog
   once the harness decides the reclaimer is dead. *)

open Atomicx

type t = {
  channel : Channel.t;
  stop_flag : bool Atomic.t;
  kill_flag : bool Atomic.t;
  dead : bool Atomic.t;
  passes : int Atomic.t;
  neutralize_age : int option;
  domain : unit Domain.t;
  keep : (string * (unit -> int)) list;
}

exception Killed

let run ~interval ~neutralize_age ~sink ~stop_flag ~kill_flag ~passes
    channel =
  Registry.with_tid @@ fun tid ->
  let last_tick = ref (Obs.Watchdog.tick ()) in
  (try
     while not (Atomic.get stop_flag) do
       Unix.sleepf interval;
       if Atomic.get kill_flag then raise Killed;
       ignore (Channel.drain channel ~tid);
       (match neutralize_age with
       | None -> ()
       | Some age ->
           let now = Obs.Watchdog.tick () in
           if now = !last_tick then last_tick := Obs.Watchdog.advance ()
           else last_tick := now;
           List.iter
             (fun (stalled, stall_age) ->
               if stalled <> tid then
                 ignore
                   (Neutralize.fire ~sink ~by:tid ~tid:stalled ~age:stall_age
                      ()))
             (Obs.Watchdog.check ~max_age:age ()));
       Atomic.incr passes
     done;
     (* Graceful exit: the channel is already closed (see [stop]), so
        this drain observes every job whose send succeeded. *)
     ignore (Channel.drain channel ~tid)
   with Killed -> ())

let start ?(interval = 0.002) ?neutralize_age
    ?(sink = Obs.Sink.null) ?(registry = Obs.Metrics.default) channel =
  let stop_flag = Atomic.make false in
  let kill_flag = Atomic.make false in
  let dead = Atomic.make false in
  let passes = Atomic.make 0 in
  let keep =
    match neutralize_age with
    | Some _ ->
        Neutralize.arm ();
        Neutralize.register_metrics ~registry ()
    | None -> []
  in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set dead true)
          (fun () ->
            run ~interval ~neutralize_age ~sink ~stop_flag ~kill_flag
              ~passes channel))
  in
  {
    channel;
    stop_flag;
    kill_flag;
    dead;
    passes;
    neutralize_age;
    domain;
    keep;
  }

let disarm_once =
  (* stop and kill+recover may both run on one handle; disarm exactly
     once per start that armed. *)
  fun t ->
    if t.neutralize_age <> None && not (Atomic.get t.stop_flag) then
      Neutralize.disarm ()

let stop t =
  Channel.close t.channel;
  disarm_once t;
  Atomic.set t.stop_flag true;
  Domain.join t.domain;
  (* Belt and braces: a send could have slipped past the close check
     before the flag landed; adopt any straggler from the caller. *)
  if Channel.depth t.channel > 0 then
    Registry.with_tid (fun tid -> ignore (Channel.drain t.channel ~tid));
  ignore (Sys.opaque_identity t.keep)

let kill t =
  Atomic.set t.kill_flag true;
  Domain.join t.domain

let recover t ~tid =
  Channel.close t.channel;
  disarm_once t;
  Atomic.set t.stop_flag true;
  Channel.drain t.channel ~tid

let alive t = not (Atomic.get t.dead)
let passes t = Atomic.get t.passes
let channel t = t.channel
