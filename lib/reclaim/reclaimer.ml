(* The neutralizing reclaimer domain.

   Each pass runs a watchdog check and fires on every validated stall
   other than its own tid.  Clocking is amortized onto whoever is
   already ticking: if an [Obs.Sampler] is advancing the watchdog
   clock, the reclaimer rides its ticks; if the tick did not move since
   the last pass (no sampler), the reclaimer advances it itself.
   Neutralization therefore works standalone, and never double-clocks
   next to a live metrics plane. *)

open Atomicx

type t = {
  stop_flag : bool Atomic.t;
  dead : bool Atomic.t;
  domain : unit Domain.t;
  keep : (string * (unit -> int)) list;
}

let run ~interval ~neutralize_age ~sink ~stop_flag =
  Registry.with_tid @@ fun tid ->
  let last_tick = ref (Obs.Watchdog.tick ()) in
  while not (Atomic.get stop_flag) do
    Unix.sleepf interval;
    let now = Obs.Watchdog.tick () in
    if now = !last_tick then last_tick := Obs.Watchdog.advance ()
    else last_tick := now;
    List.iter
      (fun (stalled, stall_age) ->
        if stalled <> tid then
          ignore
            (Neutralize.fire ~sink ~by:tid ~tid:stalled ~age:stall_age ()))
      (Obs.Watchdog.check ~max_age:neutralize_age ())
  done

let start ?(interval = 0.002) ?(sink = Obs.Sink.null)
    ?(registry = Obs.Metrics.default) ~neutralize_age () =
  let stop_flag = Atomic.make false in
  let dead = Atomic.make false in
  Neutralize.arm ();
  let keep = Neutralize.register_metrics ~registry () in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set dead true)
          (fun () -> run ~interval ~neutralize_age ~sink ~stop_flag))
  in
  { stop_flag; dead; domain; keep }

let stop t =
  if not (Atomic.exchange t.stop_flag true) then Neutralize.disarm ();
  Domain.join t.domain;
  ignore (Sys.opaque_identity t.keep)

let alive t = not (Atomic.get t.dead)
