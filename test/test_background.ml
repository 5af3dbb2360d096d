(* The background domain and stalled-guard neutralization: the
   primitive (generation bump + pending-flag handshake, wake-up
   raising, quarantine interplay), the domain's arm/disarm lifecycle
   and its two modes (report only, report and neutralize), and the
   chaos stall battery that parks a victim beside inline-retiring
   churners. *)

open Util
open Atomicx

(* ------------------------------------------------------------------ *)
(* Neutralization primitive *)

(* Park a registered domain, run [f vtid] against it from the main
   thread, then release and join.  [exit_clean] selects whether the
   victim acknowledges through an entry-point-free exit (pure
   [with_tid] return) or not — the quarantine path must clear the
   pending flag either way. *)
let with_parked_victim f =
  let victim_tid = Atomic.make (-1) in
  let release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Registry.with_tid (fun tid ->
            Atomic.set victim_tid tid;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get victim_tid < 0 do
    Domain.cpu_relax ()
  done;
  let r = f (Atomic.get victim_tid) in
  Atomic.set release true;
  Domain.join d;
  r

let test_neutralize_generation_bump () =
  Registry.reserve 1;
  let by = Registry.tid () in
  with_parked_victim (fun vtid ->
      Reclaim.Neutralize.arm ();
      Fun.protect ~finally:Reclaim.Neutralize.disarm (fun () ->
          let gen0 = Registry.generation vtid in
          check_bool "fire succeeds on an Active slot" true
            (Reclaim.Neutralize.fire ~by ~tid:vtid ~age:1 ());
          check_int "generation bumped" (gen0 + 1) (Registry.generation vtid);
          check_bool "slot stays in use" true (Registry.in_use vtid);
          check_bool "pending flag raised" true
            (Reclaim.Neutralize.is_pending ~tid:vtid)));
  (* the victim exited without touching any scheme entry point: the
     quarantine hook must have cleared the flag *)
  check_int "no pending flag survives quarantine" 0
    (Reclaim.Neutralize.pending_count ())

let test_neutralize_requires_active () =
  Registry.reserve 1;
  let by = Registry.tid () in
  Reclaim.Neutralize.arm ();
  Fun.protect ~finally:Reclaim.Neutralize.disarm (fun () ->
      (* a slot nobody holds is Free (or at least not Active): firing at
         it must refuse and leave no pending flag behind *)
      let free_tid = Registry.max_threads - 1 in
      if not (Registry.in_use free_tid) then begin
        check_bool "fire refused on a non-Active slot" false
          (Reclaim.Neutralize.fire ~by ~tid:free_tid ~age:1 ());
        check_bool "no pending flag left behind" false
          (Reclaim.Neutralize.is_pending ~tid:free_tid)
      end)

let test_check_raises_ack_silent () =
  Registry.reserve 1;
  let by = Registry.tid () in
  with_parked_victim (fun vtid ->
      Reclaim.Neutralize.arm ();
      Fun.protect ~finally:Reclaim.Neutralize.disarm (fun () ->
          let acked0 = Reclaim.Neutralize.acknowledgements () in
          check_bool "fire" true (Reclaim.Neutralize.fire ~by ~tid:vtid ~age:1 ());
          (match Reclaim.Neutralize.check ~tid:vtid with
          | () -> Alcotest.fail "check must raise on a pending flag"
          | exception Reclaim.Neutralize.Neutralized t ->
              check_int "exception names the victim" vtid t);
          check_bool "check consumed the flag" false
            (Reclaim.Neutralize.is_pending ~tid:vtid);
          check_int "check acknowledged" (acked0 + 1)
            (Reclaim.Neutralize.acknowledgements ());
          (* a second check is silent: flag already consumed *)
          Reclaim.Neutralize.check ~tid:vtid;
          (* ack path: refire, then consume silently *)
          check_bool "refire" true
            (Reclaim.Neutralize.fire ~by ~tid:vtid ~age:1 ());
          Reclaim.Neutralize.ack ~tid:vtid;
          check_bool "ack consumed the flag" false
            (Reclaim.Neutralize.is_pending ~tid:vtid)))

let test_disarmed_is_inert () =
  Registry.reserve 1;
  let tid = Registry.tid () in
  check_bool "not armed" false (Reclaim.Neutralize.enabled ());
  (* with no reclaimer armed, checks never raise even if a stale flag
     existed — the armed refcount gates the whole handshake *)
  Reclaim.Neutralize.check ~tid;
  Reclaim.Neutralize.ack ~tid

(* Neutralization is refcounted: it stays armed while either of two
   neutralizing domains runs, and each [stop] disarms once and joins
   its domain. *)
let test_reclaimer_arms_and_disarms () =
  check_bool "disarmed before" false (Reclaim.Neutralize.enabled ());
  let start () =
    Reclaim.Reclaimer.start ~interval:0.001 ~stall_age:6 ~neutralize:true ()
  in
  let a = start () in
  let b = start () in
  check_bool "armed while both run" true (Reclaim.Neutralize.enabled ());
  Reclaim.Reclaimer.stop a;
  check_bool "armed while the other runs" true (Reclaim.Neutralize.enabled ());
  check_bool "the stopped domain exited" false (Reclaim.Reclaimer.alive a);
  check_bool "the other domain runs" true (Reclaim.Reclaimer.alive b);
  Reclaim.Reclaimer.stop b;
  check_bool "disarmed after both stop" false (Reclaim.Neutralize.enabled ());
  check_bool "both domains exited" false
    (Reclaim.Reclaimer.alive a || Reclaim.Reclaimer.alive b)

(* ------------------------------------------------------------------ *)
(* Wake-after-neutralize handshake *)

type bnode = { hdr : Memdom.Hdr.t; mutable payload : int }

module BN = struct
  type t = bnode

  let hdr n = n.hdr
end

let bn_arena = Memdom.Handle.arena ~hdr:BN.hdr ()

let _read_payload n =
  Memdom.Hdr.check_access n.hdr;
  n.payload

module Hp = Reclaim.Hp.Make (BN)

(* Neutralize-vs-orphan interplay: a victim neutralized mid-guard with
   a retired backlog then dies without touching another entry point.
   The quarantine path must still publish its backlog to the orphan
   pool (adopted by a survivor's next scan), the pending flag must be
   cleared by quarantine rather than leaking onto the tid's next
   owner, and nothing may be freed twice. *)
let test_neutralize_orphan_interplay () =
  let alloc = Memdom.Alloc.create "bg-orphan" in
  let s = Hp.create ~max_hps:4 alloc in
  let mk v = { hdr = Memdom.Alloc.hdr alloc (); payload = v } in
  let hot = Link.make_in bn_arena (Link.Ptr (mk 0)) in
  let by = Registry.tid () in
  Reclaim.Neutralize.arm ();
  Fun.protect ~finally:Reclaim.Neutralize.disarm (fun () ->
      let victim_tid = Atomic.make (-1) in
      let release = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Registry.with_tid (fun tid ->
                Hp.begin_op s ~tid;
                ignore (Hp.get_protected_v s ~tid ~idx:0 hot);
                (* a backlog below the scan threshold: stays parked on
                   the retired list until quarantine publishes it *)
                for j = 1 to 8 do
                  Hp.retire s ~tid (mk (-j))
                done;
                Atomic.set victim_tid tid;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done
                (* dies here: no end_op, no ack — the exit path owns
                   both the orphan hand-off and the flag *)))
      in
      while Atomic.get victim_tid < 0 do
        Domain.cpu_relax ()
      done;
      let vtid = Atomic.get victim_tid in
      check_bool "fire" true (Reclaim.Neutralize.fire ~by ~tid:vtid ~age:1 ());
      Atomic.set release true;
      Domain.join d;
      check_int "quarantine cleared the pending flag" 0
        (Reclaim.Neutralize.pending_count ());
      check_bool "backlog published for adoption" true (Hp.orphaned s > 0);
      (* a survivor's scan adopts the orphans; flush plays that role *)
      (match Link.target (swap bn_arena hot Link.Null) with
      | Some n -> Hp.retire s ~tid:by n
      | None -> ());
      Hp.flush s;
      check_int "orphans adopted" 0 (Hp.orphaned s);
      check_int "no leak, no double free" 0 (Memdom.Alloc.live alloc))

(* EBR's stall remedy with no clock and no reclaimer: a reader parked
   inside [begin_op] holds the global epoch back, so every retiree
   past R stays pending.  Firing the neutralization by hand forces the
   victim's announcement quiescent; the next retire-driven scans free
   the backlog while the victim still sleeps, and the victim's next
   protected read raises instead of reading unprotected. *)
module Ebr = Reclaim.Ebr.Make (BN)

let test_ebr_neutralized_reader () =
  let alloc = Memdom.Alloc.create "bg-ebr-neutralize" in
  let s = Ebr.create ~max_hps:4 alloc in
  let mk v = { hdr = Memdom.Alloc.hdr alloc (); payload = v } in
  let hot = Link.make_in bn_arena (Link.Ptr (mk 0)) in
  let by = Registry.tid () in
  let retire_round () =
    let batch = List.init (Reclaim.Tuning.threshold ~hps:4) mk in
    List.iter (Ebr.retire s ~tid:by) batch;
    batch
  in
  let all_freed = List.for_all (fun n -> Memdom.Hdr.is_freed n.hdr) in
  Reclaim.Neutralize.arm ();
  Fun.protect ~finally:Reclaim.Neutralize.disarm (fun () ->
      let victim_tid = Atomic.make (-1) and release = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Registry.with_tid (fun tid ->
                Ebr.begin_op s ~tid;
                Atomic.set victim_tid tid;
                while not (Atomic.get release) do
                  Unix.sleepf 0.001
                done;
                let raised =
                  match Ebr.get_protected_v s ~tid ~idx:0 hot with
                  | _ -> false
                  | exception Reclaim.Neutralize.Neutralized _ -> true
                in
                Ebr.end_op s ~tid;
                raised))
      in
      while Atomic.get victim_tid < 0 do
        Domain.cpu_relax ()
      done;
      let vtid = Atomic.get victim_tid in
      (* several crossings of R, each a scan, and none frees anything *)
      let pinned = List.concat (List.init 4 (fun _ -> retire_round ())) in
      check_bool "the parked reader pins every retiree" true
        (List.for_all (fun n -> not (Memdom.Hdr.is_freed n.hdr)) pinned);
      check_bool "fire" true (Reclaim.Neutralize.fire ~by ~tid:vtid ~age:1 ());
      (* each round crosses R once more: one scan, one epoch advance *)
      let rec rounds k = if k > 0 && not (all_freed pinned) then begin
          ignore (retire_round ());
          rounds (k - 1)
        end
      in
      rounds 8;
      let freed_while_asleep = all_freed pinned in
      Atomic.set release true;
      let raised = Domain.join d in
      check_bool "retirees freed with the victim still parked" true
        freed_while_asleep;
      check_bool "the waking victim's protected read raised" true raised;
      (match Link.target (swap bn_arena hot Link.Null) with
      | Some n -> Ebr.retire s ~tid:by n
      | None -> ());
      Ebr.flush s;
      check_int "no leak" 0 (Memdom.Alloc.live alloc))

(* ------------------------------------------------------------------ *)
(* The background domain's two modes *)

type observed = {
  gen_moved : bool;  (* the parked slot's generation changed *)
  armed : bool;  (* [Neutralize.enabled ()] while the domain ran *)
  ticks : int;  (* at stop *)
  ticks_later : int;  (* 20 ms after stop *)
  stalls : int;
  events : Obs.Event.t list;  (* Stall and Neutralize naming the victim *)
  series : string list;
}

(* Start a domain over a fresh registry, park an HP guard past its
   stall age (3 ticks) and wait for the domain to report it — and,
   when neutralizing, to expire it — then let a few more passes run,
   release the guard and stop the domain. *)
let observe_park ~neutralize =
  let registry = Obs.Metrics.create () and sink = Obs.Sink.make () in
  let s = Hp.create ~max_hps:4 (Memdom.Alloc.create "bg-domain") in
  let d = Reclaim.Reclaimer.start ~registry ~sink ~neutralize () in
  let await pred =
    let deadline = Unix.gettimeofday () +. 5. in
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done
  in
  (* the watchdog only stamps once the tick is live *)
  await (fun () -> Reclaim.Reclaimer.ticks d >= 1);
  let victim_tid = Atomic.make (-1) and release = Atomic.make false in
  let victim =
    Domain.spawn (fun () ->
        Registry.with_tid (fun tid ->
            Hp.begin_op s ~tid;
            Atomic.set victim_tid tid;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done;
            Hp.end_op s ~tid))
  in
  await (fun () -> Atomic.get victim_tid >= 0);
  let vtid = Atomic.get victim_tid in
  let gen0 = Registry.generation vtid in
  let naming kind =
    List.concat_map Array.to_list (Obs.Sink.events sink)
    |> List.filter (fun (e : Obs.Event.t) -> e.kind = kind && e.uid = vtid)
  in
  let last = if neutralize then Obs.Event.Neutralize else Obs.Event.Stall in
  await (fun () -> naming last <> []);
  let seen = Reclaim.Reclaimer.ticks d in
  await (fun () -> Reclaim.Reclaimer.ticks d >= max 3 (seen + 5));
  let gen_moved = Registry.generation vtid <> gen0 in
  let armed = Reclaim.Neutralize.enabled () in
  Atomic.set release true;
  Domain.join victim;
  Reclaim.Reclaimer.stop d;
  let ticks = Reclaim.Reclaimer.ticks d in
  Unix.sleepf 0.02;
  {
    gen_moved;
    armed;
    ticks;
    ticks_later = Reclaim.Reclaimer.ticks d;
    stalls = Reclaim.Reclaimer.stalls d;
    events =
      List.sort
        (fun (a : Obs.Event.t) b -> compare a.seq b.seq)
        (naming Obs.Event.Stall @ naming Obs.Event.Neutralize);
    series =
      List.map
        (fun (x : Obs.Metrics.series) -> x.name)
        (Obs.Metrics.series registry);
  }

let is kind (e : Obs.Event.t) = e.kind = kind

let test_domain_reports () =
  let o = observe_park ~neutralize:false in
  check_bool "ticked at least 3 times" true (o.ticks >= 3);
  check_bool "registry gauge sampled" true
    (List.mem "orcgc_registry_active" o.series);
  check_bool "stall counter sampled" true
    (List.mem "orcgc_stalls_total" o.series);
  check_int "no ticks after stop" o.ticks o.ticks_later;
  check_bool "the parked guard was reported" true (o.stalls >= 1);
  check_bool "a Stall event names the victim" true
    (List.exists (is Obs.Event.Stall) o.events);
  check_bool "never neutralized" false
    (List.exists (is Obs.Event.Neutralize) o.events);
  check_bool "neutralization stays disarmed" false o.armed;
  check_bool "the slot's generation did not change" false o.gen_moved

let test_domain_neutralizes () =
  let o = observe_park ~neutralize:true in
  check_bool "neutralization armed while running" true o.armed;
  check_int "exactly one Neutralize event names the victim" 1
    (List.length (List.filter (is Obs.Event.Neutralize) o.events));
  (match List.find_opt (is Obs.Event.Neutralize) o.events with
  | Some n ->
      check_bool "a Stall event came before it" true
        (List.exists
           (fun (e : Obs.Event.t) ->
             is Obs.Event.Stall e && e.tid = n.tid && e.seq < n.seq)
           o.events)
  | None -> ());
  check_bool "the slot's generation was bumped" true o.gen_moved

(* ------------------------------------------------------------------ *)
(* Batteries *)

let test_stall_battery () =
  let r = Chaos.run_stall () in
  if not (Chaos.stall_ok r) then
    Alcotest.fail (Format.asprintf "%a" Chaos.pp_stall_report r);
  check_bool "the stall was reported" true r.Chaos.st_detected;
  check_bool "at least one validated stall report" true (r.Chaos.st_stalls >= 1);
  check_bool "age reached the threshold" true (r.Chaos.st_age_max >= 3);
  check_bool "neutralized after its Stall event" true r.Chaos.st_neutralized;
  check_bool "no longer flagged while parked" true r.Chaos.st_cleared;
  check_bool "pinned node freed with victim still parked" true
    r.Chaos.st_pinned_freed;
  check_bool "waking victim raised Neutralized" true r.Chaos.st_victim_raised;
  check_int "two domains killed mid-stall" 2 r.Chaos.st_kills;
  check_int "every killed slot force-released" r.Chaos.st_kills
    r.Chaos.st_forced;
  check_int "nothing left unreclaimed" 0 r.Chaos.st_unreclaimed_after;
  check_int "nothing leaked" 0 r.Chaos.st_leaked

(* A victim that dies before it parks must fail the battery, not hang
   it.  With every registry slot but one held, the background domain
   takes the last one and the victim's [with_tid] raises
   [Too_many_threads]. *)
let test_stall_battery_victim_fails () =
  ignore (Registry.tid ());
  let held =
    Domain.join
      (Domain.spawn (fun () ->
           let rec grab acc =
             match Registry.tid () with
             | tid ->
                 ignore (Registry.abandon ());
                 grab (tid :: acc)
             | exception Registry.Too_many_threads _ -> acc
           in
           grab []))
  in
  let release_all () =
    List.iter (fun tid -> ignore (Registry.force_release tid)) held
  in
  (match held with
  | tid :: _ -> ignore (Registry.force_release tid)
  | [] -> Alcotest.fail "no slot to hold");
  let t0 = Unix.gettimeofday () in
  let r = Fun.protect ~finally:release_all Chaos.run_stall in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "the battery fails" false (Chaos.stall_ok r);
  check_int "the victim never parked" (-1) r.Chaos.st_victim;
  check_bool "the victim's exception is reported" true
    (List.exists
       (String.starts_with ~prefix:"Atomicx.Registry.Too_many_threads")
       r.Chaos.st_errors);
  check_bool "returned within the 5 s park deadline" true (elapsed < 5.)

let suite =
  [
    ( "background",
      [
        Alcotest.test_case "neutralize: generation bump + quarantine clears"
          `Quick test_neutralize_generation_bump;
        Alcotest.test_case "neutralize: refuses non-Active slots" `Quick
          test_neutralize_requires_active;
        Alcotest.test_case "neutralize: check raises, ack is silent" `Quick
          test_check_raises_ack_silent;
        Alcotest.test_case "neutralize: disarmed handshake is inert" `Quick
          test_disarmed_is_inert;
        Alcotest.test_case "reclaimer arms and disarms" `Quick
          test_reclaimer_arms_and_disarms;
        Alcotest.test_case "hp: neutralize vs orphan adoption" `Quick
          test_neutralize_orphan_interplay;
        Alcotest.test_case
          "ebr: a neutralized parked reader stops pinning the epoch" `Quick
          test_ebr_neutralized_reader;
        Alcotest.test_case "domain: reports without neutralizing" `Quick
          test_domain_reports;
        Alcotest.test_case "domain: neutralizes what it reports" `Quick
          test_domain_neutralizes;
        Alcotest.test_case "battery: stalled guard neutralized" `Slow
          test_stall_battery;
        Alcotest.test_case "battery: fails fast if victim dies" `Quick
          test_stall_battery_victim_fails;
      ] );
  ]
