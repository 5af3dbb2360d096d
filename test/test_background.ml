(* Background reclamation pipeline: transfer-channel semantics
   (bounded depth, refusal = backpressure, closed = degradation),
   neutralization (generation bump + pending-flag handshake, wake-up
   raising, quarantine interplay), per-scheme background drain modes,
   and the reclaimer fault-tolerance batteries (stalled-guard
   neutralization, kill-the-reclaimer). *)

open Util
open Atomicx

(* ------------------------------------------------------------------ *)
(* Channel *)

let test_channel_send_drain () =
  Registry.reserve 1;
  let tid = Registry.tid () in
  let ch = Reclaim.Channel.create ~bound:100 () in
  let ran = ref [] in
  let send tag count =
    Reclaim.Channel.send ch ~tid ~count (fun ~tid:_ -> ran := tag :: !ran)
  in
  check_bool "send accepted" true (send `A 10);
  check_bool "second send accepted" true (send `B 20);
  check_int "depth counts objects, not jobs" 30 (Reclaim.Channel.depth ch);
  check_int "drain returns the object count" 30
    (Reclaim.Channel.drain ch ~tid);
  check_bool "jobs ran in send order" true (!ran = [ `B; `A ]);
  check_int "depth drained" 0 (Reclaim.Channel.depth ch);
  check_int "drain on empty is free" 0 (Reclaim.Channel.drain ch ~tid);
  check_int "sent counts objects" 30 (Reclaim.Channel.sent ch);
  check_int "drained counts objects" 30 (Reclaim.Channel.drained ch)

let test_channel_bound_and_close () =
  Registry.reserve 1;
  let tid = Registry.tid () in
  let ch = Reclaim.Channel.create ~bound:32 () in
  let noop ~tid:_ = () in
  check_bool "fits the bound" true (Reclaim.Channel.send ch ~tid ~count:30 noop);
  check_bool "overflow refused" false
    (Reclaim.Channel.send ch ~tid ~count:3 noop);
  check_int "refusal counted as fallback" 1 (Reclaim.Channel.fallbacks ch);
  check_int "refused objects never entered" 30 (Reclaim.Channel.depth ch);
  Reclaim.Channel.close ch;
  check_bool "closed refuses even fitting sends" false
    (Reclaim.Channel.send ch ~tid ~count:1 noop);
  check_int "backlog still drainable after close" 30
    (Reclaim.Channel.drain ch ~tid);
  Reclaim.Channel.reopen ch;
  check_bool "reopen accepts again" true
    (Reclaim.Channel.send ch ~tid ~count:1 noop);
  check_int "reopened backlog" 1 (Reclaim.Channel.drain ch ~tid)

let test_channel_concurrent_senders () =
  let ch = Reclaim.Channel.create ~bound:max_int () in
  let n = 4 and per = 200 in
  run_domains_exn n (fun ~i:_ ~tid ->
      for _ = 1 to per do
        if not (Reclaim.Channel.send ch ~tid ~count:1 (fun ~tid:_ -> ()))
        then failwith "unbounded send refused"
      done);
  let tid = Registry.tid () in
  check_int "every concurrent send arrived" (n * per)
    (Reclaim.Channel.drain ch ~tid);
  check_int "depth zero after drain" 0 (Reclaim.Channel.depth ch)

let test_channel_capacity_one () =
  Registry.reserve 1;
  let tid = Registry.tid () in
  let ch = Reclaim.Channel.create ~bound:1 () in
  let noop ~tid:_ = () in
  check_bool "first object fits" true
    (Reclaim.Channel.send ch ~tid ~count:1 noop);
  check_bool "second refused at capacity 1" false
    (Reclaim.Channel.send ch ~tid ~count:1 noop);
  check_int "depth exact" 1 (Reclaim.Channel.depth ch);
  check_int "drain recovers the single object" 1
    (Reclaim.Channel.drain ch ~tid);
  check_bool "slot free again" true
    (Reclaim.Channel.send ch ~tid ~count:1 noop);
  check_int "final drain" 1 (Reclaim.Channel.drain ch ~tid)

let test_channel_depth_after_kill_recover () =
  Registry.reserve 1;
  let tid = Registry.tid () in
  let ch = Reclaim.Channel.create ~bound:1024 () in
  let reclaimer = Reclaim.Reclaimer.start ~interval:0.5 ch in
  (* the reclaimer sleeps its first long interval: land a backlog, kill
     it, and the depth gauge must still equal exactly what recover
     replays *)
  let landed = ref 0 in
  for k = 1 to 5 do
    if Reclaim.Channel.send ch ~tid ~count:k (fun ~tid:_ -> ()) then
      landed := !landed + k
  done;
  Reclaim.Reclaimer.kill reclaimer;
  check_bool "reclaimer dead" false (Reclaim.Reclaimer.alive reclaimer);
  let backlog = Reclaim.Channel.depth ch in
  let recovered = Reclaim.Reclaimer.recover reclaimer ~tid in
  check_int "recover replays the full depth" backlog recovered;
  check_int "depth zero after recover" 0 (Reclaim.Channel.depth ch);
  check_int "drained accounts every landed object" !landed
    (Reclaim.Channel.drained ch)

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

(* ------------------------------------------------------------------ *)
(* Scheme background drain + wake-after-neutralize handshake *)

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

(* Background drain, manual scheme: retires routed through the channel
   are reclaimed by the reclaimer domain; stopping the reclaimer and
   flushing accounts for every object.  [closed] runs the same load
   against a closed channel with no reclaimer: every send is refused,
   each batch is reclaimed inline on the retiring thread, and nothing
   may leak on that path either. *)
module Drain (S : Reclaim.Scheme_intf.S with type node = bnode) = struct
  let run ~closed () =
    let alloc = Memdom.Alloc.create ("bg-" ^ S.name) in
    let s = S.create ~max_hps:4 alloc in
    let ch = Reclaim.Channel.create () in
    let reclaimer =
      if closed then begin
        Reclaim.Channel.close ch;
        None
      end
      else Some (Reclaim.Reclaimer.start ~interval:0.001 ch)
    in
    S.set_background s (Some ch);
    let mk v = { hdr = Memdom.Alloc.hdr alloc (); payload = v } in
    let table =
      Array.init 4 (fun i -> Link.make_in bn_arena (Link.Ptr (mk i)))
    in
    run_domains_exn 3 (fun ~i ~tid ->
        let rng = Rng.create (0xB0 + i) in
        for k = 1 to 500 do
          S.begin_op s ~tid;
          let n = mk k in
          S.protect_raw s ~tid ~idx:0 (Some n);
          let old = swap bn_arena table.(Rng.int rng 4) (Link.Ptr n) in
          S.end_op s ~tid;
          match Link.target old with
          | Some o -> S.retire s ~tid o
          | None -> ()
        done);
    (match reclaimer with
    | Some r ->
        Reclaim.Reclaimer.stop r;
        check_bool "reclaimer exited" false (Reclaim.Reclaimer.alive r);
        check_bool "reclaimer made passes" true (Reclaim.Reclaimer.passes r > 0);
        check_bool "batches travelled the channel" true
          (Reclaim.Channel.sent ch > 0)
    | None ->
        check_int "a closed channel accepts nothing" 0
          (Reclaim.Channel.sent ch);
        check_bool "refused batches fell back inline" true
          (Reclaim.Channel.fallbacks ch > 0));
    check_int "stopped channel holds nothing" 0 (Reclaim.Channel.depth ch);
    S.set_background s None;
    let tid = Registry.tid () in
    Array.iter
      (fun slot ->
        match Link.target (swap bn_arena slot Link.Null) with
        | Some n -> S.retire s ~tid n
        | None -> ())
      table;
    S.flush s;
    check_int "no object leaked through the pipeline" 0
      (Memdom.Alloc.live alloc);
    check_int "unreclaimed zero" 0 (S.unreclaimed s)

  let drain =
    Alcotest.test_case
      (S.name ^ ": background drain leaks nothing")
      `Quick (run ~closed:false)

  let closed =
    Alcotest.test_case
      (S.name ^ ": closed channel scans inline")
      `Quick (run ~closed:true)
end

module Drain_hp = Drain (Hp)
module Drain_he = Drain (Reclaim.He.Make (BN))
module Drain_ibr = Drain (Reclaim.Ibr.Make (BN))
module Drain_ebr = Drain (Reclaim.Ebr.Make (BN))
module Drain_ptb = Drain (Reclaim.Ptb.Make (BN))
module Drain_ptp = Drain (Orc_core.Ptp.Make (BN))

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

(* Automatic scheme: orc guards under a background reclaimer.  The
   channel carries BRETIRED batches; stop + flush accounts for every
   node including cascades through the structure's links. *)
type onode = { hdr : Memdom.Hdr.t; ov : int; next : onode Link.t }

module ON = struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

let _read_ov n =
  Memdom.Hdr.check_access n.hdr;
  n.ov

module Orc_drain (O : Orc_core.Orc.S with type node = onode) = struct
  let run () =
    let alloc = Memdom.Alloc.create ("bg-" ^ O.name) in
    let o = O.create alloc in
    let ch = Reclaim.Channel.create () in
    let reclaimer = Reclaim.Reclaimer.start ~interval:0.001 ch in
    O.set_background o (Some ch);
    let amk v hdr =
      { hdr; ov = v; next = Link.make_in (O.arena o) Link.Null }
    in
    let table = Array.init 4 (fun _ -> Link.make_in (O.arena o) Link.Null) in
    run_domains_exn 3 (fun ~i ~tid:_ ->
        let rng = Rng.create (0x0C + i) in
        for k = 1 to 400 do
          O.with_guard o (fun g ->
              let slot = table.(Rng.int rng 4) in
              let p = O.ptr g in
              O.load g slot p;
              let np = O.alloc_node g (amk k) in
              O.store_v g slot (O.Ptr.view np))
        done);
    Reclaim.Reclaimer.stop reclaimer;
    O.set_background o None;
    O.with_guard o (fun g ->
        Array.iter (fun slot -> O.store_v g slot Link.v_null) table);
    O.flush o;
    check_int "orc background pipeline leaked nothing" 0
      (Memdom.Alloc.live alloc);
    check_int "orc unreclaimed zero" 0 (O.unreclaimed o)
end

module Orc_ptp_drain = Orc_drain (Orc_core.Orc.Make (ON))
module Orc_hp_drain = Orc_drain (Orc_core.Orc.Make_hp (ON))

(* ------------------------------------------------------------------ *)
(* Batteries *)

let test_neutralize_battery () =
  let r = Chaos.run_neutralize () in
  if not (Chaos.bg_ok r) then
    Alcotest.fail (Format.asprintf "%a" Chaos.pp_bg_report r);
  check_bool "victim was neutralized" true r.Chaos.bg_neutralized;
  check_bool "waking victim raised Neutralized" true r.Chaos.bg_victim_raised;
  check_bool "pinned node freed with victim still parked" true
    r.Chaos.bg_pinned_freed;
  check_int "two domains killed mid-stall" 2 r.Chaos.bg_kills;
  check_int "every killed slot force-released" r.Chaos.bg_kills
    r.Chaos.bg_forced;
  check_int "nothing leaked" 0 r.Chaos.bg_leaked;
  check_bool "pipeline carried batches" true (r.Chaos.bg_sent > 0)

let test_reclaimer_kill_battery () =
  let r = Chaos.run_reclaimer_kill () in
  if not (Chaos.bg_ok r) then
    Alcotest.fail (Format.asprintf "%a" Chaos.pp_bg_report r);
  check_int "kill battery leaked nothing" 0 r.Chaos.bg_leaked;
  check_bool "degradation observed: inline fallbacks or recovered backlog"
    true
    (r.Chaos.bg_fallbacks > 0 || r.Chaos.bg_recovered > 0)

let suite =
  [
    ( "background",
      [
        Alcotest.test_case "channel: send/drain order and depth" `Quick
          test_channel_send_drain;
        Alcotest.test_case "channel: bound refusal, close, reopen" `Quick
          test_channel_bound_and_close;
        Alcotest.test_case "channel: concurrent senders" `Quick
          test_channel_concurrent_senders;
        Alcotest.test_case "channel: capacity one" `Quick
          test_channel_capacity_one;
        Alcotest.test_case "channel: depth accuracy across kill/recover"
          `Quick test_channel_depth_after_kill_recover;
        Alcotest.test_case "neutralize: generation bump + quarantine clears"
          `Quick test_neutralize_generation_bump;
        Alcotest.test_case "neutralize: refuses non-Active slots" `Quick
          test_neutralize_requires_active;
        Alcotest.test_case "neutralize: check raises, ack is silent" `Quick
          test_check_raises_ack_silent;
        Alcotest.test_case "neutralize: disarmed handshake is inert" `Quick
          test_disarmed_is_inert;
        Drain_hp.drain;
        Alcotest.test_case "hp: neutralize vs orphan adoption" `Quick
          test_neutralize_orphan_interplay;
        Alcotest.test_case
          "ebr: a neutralized parked reader stops pinning the epoch" `Quick
          test_ebr_neutralized_reader;
        Alcotest.test_case "orc: background drain leaks nothing" `Quick
          Orc_ptp_drain.run;
        Alcotest.test_case "orc-hp: background drain leaks nothing" `Quick
          Orc_hp_drain.run;
        Alcotest.test_case "battery: stalled guard neutralized" `Slow
          test_neutralize_battery;
        Alcotest.test_case "battery: reclaimer killed mid-run" `Slow
          test_reclaimer_kill_battery;
        Drain_hp.closed;
        Drain_he.drain;
        Drain_he.closed;
        Drain_ibr.drain;
        Drain_ibr.closed;
        Drain_ebr.drain;
        Drain_ebr.closed;
        Drain_ptb.drain;
        Drain_ptb.closed;
        Drain_ptp.drain;
        Drain_ptp.closed;
      ] );
  ]
