open Atomicx

type t = {
  stop_flag : bool Atomic.t;
  ticks_done : int Atomic.t;
  stalls_seen : int Atomic.t;
  domain : unit Domain.t;
}

(* Built-in probes over the thread registry.  The closures are stored in
   this list solely to keep them reachable (Metrics holds probes
   weakly); one registration per registry instance is enough, and the
   sampler handle keeps the list alive. *)
let registry_probes reg =
  let quarantined () =
    let n = ref 0 in
    for tid = 0 to Registry.high_water () - 1 do
      match Registry.slot_state tid with
      | `Quarantined -> incr n
      | `Free | `Active | `Staged -> ()
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
  List.iter (fun (name, f) -> Metrics.probe reg name f) probes;
  probes

let pass reg sink stall_counter ~max_age ~stalls_seen ~tid =
  let tick = Watchdog.advance () in
  Metrics.sample reg ~tick;
  let stalls = Watchdog.check ~max_age () in
  List.iter
    (fun (stalled, age) ->
      Shard.incr stall_counter ~tid;
      Atomic.incr stalls_seen;
      Sink.on_stall sink ~tid ~stalled ~age)
    stalls

let start ?(interval = 0.01) ?(registry = Metrics.default) ?(sink = Sink.null)
    ?(stall_age = 3) () =
  let stop_flag = Atomic.make false in
  let ticks_done = Atomic.make 0 in
  let stalls_seen = Atomic.make 0 in
  let stall_counter = Metrics.counter registry "orcgc_stalls_total" in
  let domain =
    Domain.spawn (fun () ->
        Registry.with_tid (fun tid ->
            (* keep the built-in probes alive for the domain's lifetime *)
            let keep = registry_probes registry in
            while not (Atomic.get stop_flag) do
              Unix.sleepf interval;
              pass registry sink stall_counter ~max_age:stall_age ~stalls_seen
                ~tid;
              Atomic.incr ticks_done
            done;
            ignore (Sys.opaque_identity keep)))
  in
  { stop_flag; ticks_done; stalls_seen; domain }

let stop t =
  Atomic.set t.stop_flag true;
  Domain.join t.domain

let ticks t = Atomic.get t.ticks_done
let stalls t = Atomic.get t.stalls_seen
