(** Chaos harness: waves of short-lived domains dying at adversarial
    points, asserting the registry + orphan lifecycle contract.  See
    the mli for the model. *)

open Atomicx

type cfg = {
  waves : int;
  domains_per_wave : int;
  ops : int;
  kill_every : int;
  burst : int;
  slots : int;
  seed : int;
  sink : Obs.Sink.t;
}

let default =
  {
    waves = 20;
    domains_per_wave = 8;
    ops = 120;
    kill_every = 40;
    burst = 96;
    slots = 8;
    seed = 0xC11A05;
    sink = Obs.Sink.null;
  }

type report = {
  name : string;
  domains : int;
  killed : int;
  abandoned : int;
  force_released : int;
  peak_unreclaimed : int;
  leaked : int;
  unreclaimed_after : int;
  orphaned_after : int;
  pool_hits : int;
  pool_misses : int;
  remote_frees : int;
  errors : string list;
}

let ok r =
  r.errors = [] && r.leaked = 0 && r.unreclaimed_after = 0
  && r.orphaned_after = 0
  && r.force_released = r.abandoned

let pp_errors fmt = function
  | [] -> ()
  | es ->
      Format.fprintf fmt "@,errors:@,%a"
        (Format.pp_print_list Format.pp_print_string)
        es

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v 2>%s: %d domains, %d killed (%d abandoned, %d force-released)@,\
     peak unreclaimed %d; after quiesce: leaked %d, unreclaimed %d, \
     orphaned %d%t%a@]"
    r.name r.domains r.killed r.abandoned r.force_released r.peak_unreclaimed
    r.leaked r.unreclaimed_after r.orphaned_after
    (fun fmt ->
      if r.pool_hits + r.pool_misses > 0 then
        Format.fprintf fmt "@,pool: hits %d, misses %d, remote frees %d"
          r.pool_hits r.pool_misses r.remote_frees)
    pp_errors
    r.errors

(* Deaths are modelled as this exception escaping the worker; the spawn
   wrapper eats it (and only it), exactly like a thread falling off its
   entry point mid-operation. *)
exception Killed

(* Wave controller shared by all batteries.  [worker] runs registered
   (inside [Registry.with_tid]); it reports how it died through [out]
   and may raise [Killed].  [sample] is read at every wave join for the
   peak-unreclaimed series. *)
let drive cfg ~worker ~sample =
  let rng0 = Rng.create cfg.seed in
  let killed = ref 0
  and abandoned = ref 0
  and forced = ref 0
  and peak = ref 0
  and errors = ref [] in
  for _wave = 1 to cfg.waves do
    let seeds =
      List.init cfg.domains_per_wave (fun _ -> Rng.int rng0 0x3FFF_FFFF)
    in
    let doms =
      List.map
        (fun seed ->
          Domain.spawn (fun () ->
              let out = ref `Done in
              (try
                 Registry.with_tid (fun tid ->
                     worker ~tid ~rng:(Rng.create seed) ~out)
               with
              | Killed -> ()
              | e -> out := `Error (Printexc.to_string e));
              !out))
        seeds
    in
    List.iter
      (fun d ->
        match Domain.join d with
        | `Done -> ()
        | `Killed -> incr killed
        | `Abandoned tid ->
            (* the domain is joined, so its owner is provably gone:
               reclaim the still-Active slot from here *)
            incr killed;
            incr abandoned;
            if Registry.force_release tid then incr forced
        | `Error msg -> errors := msg :: !errors)
      doms;
    peak := max !peak (sample ())
  done;
  (!killed, !abandoned, !forced, !peak, List.rev !errors)

(* ------------------------------------------------------------------ *)
(* Manual schemes (protect/retire API)                                 *)
(* ------------------------------------------------------------------ *)

type cnode = { hdr : Memdom.Hdr.t; mutable payload : int }

module CN = struct
  type t = cnode

  let hdr n = n.hdr
end

(* Slot tables of cnode links, one arena per table *)
let cnode_arena () = Memdom.Handle.arena ~hdr:(fun (n : cnode) -> n.hdr) ()

(* [Link.exchange_v] returning the evicted node, if any *)
let evict arena slot v =
  let old = Link.exchange_v slot v in
  if Link.v_has_target old then Some (Link.v_node arena old) else None

module Battery (S : Reclaim.Scheme_intf.S with type node = cnode) = struct
  let mk alloc v = { hdr = Memdom.Alloc.hdr alloc (); payload = v }

  let read n =
    Memdom.Hdr.check_access n.hdr;
    n.payload

  let worker s alloc arena table cfg ~tid ~rng ~out =
    let nslots = Array.length table in
    for k = 1 to cfg.ops do
      let slot = table.(Rng.int rng nslots) in
      let kill = cfg.kill_every > 0 && Rng.int rng cfg.kill_every = 0 in
      if kill then
        match Rng.int rng 3 with
        | 0 ->
            (* die inside the guard, protection published: the exit
               path must unpublish it or the node pins forever *)
            S.begin_op s ~tid;
            ignore (S.get_protected_v s ~tid ~idx:0 slot);
            out := `Killed;
            raise Killed
        | 1 ->
            (* die with a backlog of unscanned retires: the orphan
               protocol must hand them to survivors *)
            for j = 1 to cfg.burst do
              S.retire s ~tid (mk alloc (-j))
            done;
            out := `Killed;
            raise Killed
        | _ ->
            (* abrupt death: hazards up, slot left Active; only the
               controller's [force_release] can reclaim it *)
            S.begin_op s ~tid;
            ignore (S.get_protected_v s ~tid ~idx:0 slot);
            out := `Abandoned (Registry.abandon ());
            raise Killed
      else begin
        S.begin_op s ~tid;
        if Rng.bool rng then begin
          (* writer: swap in a fresh node, retire the evictee *)
          let n = mk alloc k in
          S.protect_raw s ~tid ~idx:0 (Some n);
          let old = evict arena slot (Link.v_ptr_in arena n) in
          S.end_op s ~tid;
          match old with
          | Some o -> S.retire s ~tid o
          | None -> ()
        end
        else begin
          let v = S.get_protected_v s ~tid ~idx:(1 + Rng.int rng 3) slot in
          if Link.v_has_target v then
            ignore (Sys.opaque_identity (read (Link.v_node arena v)));
          S.end_op s ~tid
        end
      end
    done

  let run ?(mode = Memdom.Alloc.System) cfg =
    let suffix = match mode with Memdom.Alloc.System -> "" | Pool -> "-pool" in
    let alloc =
      Memdom.Alloc.create ~mode ~sink:cfg.sink (S.name ^ suffix ^ "-chaos")
    in
    let s = S.create ~max_hps:4 ~sink:cfg.sink alloc in
    let arena = cnode_arena () in
    let table =
      Array.init cfg.slots (fun i ->
          Link.make_in arena (Link.Ptr (mk alloc i)))
    in
    let killed, abandoned, forced, peak, errors =
      drive cfg
        ~worker:(fun ~tid ~rng ~out ->
          worker s alloc arena table cfg ~tid ~rng ~out)
        ~sample:(fun () -> S.unreclaimed s)
    in
    (* quiesce: unlink the table, then drain retired lists, handovers
       and the orphan pool *)
    let tid = Registry.tid () in
    Array.iter
      (fun slot ->
        match evict arena slot Link.v_null with
        | Some n -> S.retire s ~tid n
        | None -> ())
      table;
    S.flush s;
    {
      name = S.name ^ suffix;
      domains = cfg.waves * cfg.domains_per_wave;
      killed;
      abandoned;
      force_released = forced;
      peak_unreclaimed = peak;
      leaked = Memdom.Alloc.live alloc;
      unreclaimed_after = S.unreclaimed s;
      orphaned_after = S.orphaned s;
      pool_hits = Memdom.Alloc.pool_hits alloc;
      pool_misses = Memdom.Alloc.pool_misses alloc;
      remote_frees = Memdom.Alloc.remote_frees alloc;
      errors;
    }
end

module Hp = Battery (Reclaim.Hp.Make (CN))
module Ptb = Battery (Reclaim.Ptb.Make (CN))
module Ebr = Battery (Reclaim.Ebr.Make (CN))
module He = Battery (Reclaim.He.Make (CN))
module Ibr = Battery (Reclaim.Ibr.Make (CN))
module Ptp = Battery (Orc_core.Ptp.Make (CN))

(* ------------------------------------------------------------------ *)
(* Automatic schemes (guard API)                                       *)
(* ------------------------------------------------------------------ *)

type anode = { hdr : Memdom.Hdr.t; av : int; next : anode Link.t }

module AN = struct
  type t = anode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

module Auto_battery (O : Orc_core.Orc.S with type node = anode) = struct
  let amk o v hdr =
    { hdr; av = v; next = Link.make_in (O.arena o) Link.Null }

  (* [with_guard] scopes cannot be skipped the way manual [end_op]
     calls can, so the kill points are an exception escaping the guard
     (protections must unwind) and an abrupt between-guard abandon
     (the slot's hazard row must be reclaimed by [force_release]). *)
  let worker o table cfg ~tid:_ ~rng ~out =
    let nslots = Array.length table in
    for k = 1 to cfg.ops do
      let slot = table.(Rng.int rng nslots) in
      let kill = cfg.kill_every > 0 && Rng.int rng cfg.kill_every = 0 in
      if kill && Rng.int rng 3 = 0 then begin
        out := `Abandoned (Registry.abandon ());
        raise Killed
      end
      else
        O.with_guard o (fun g ->
            let p = O.ptr g in
            O.load g slot p;
            (match O.Ptr.node p with
            | Some n ->
                Memdom.Hdr.check_access n.hdr;
                ignore (Sys.opaque_identity n.av)
            | None -> ());
            if Rng.bool rng then begin
              let np = O.alloc_node g (amk o k) in
              O.store_v g slot (O.Ptr.view np)
            end;
            if kill then begin
              out := `Killed;
              raise Killed
            end)
    done

  let run ?(mode = Memdom.Alloc.System) cfg =
    let suffix = match mode with Memdom.Alloc.System -> "" | Pool -> "-pool" in
    let alloc =
      Memdom.Alloc.create ~mode ~sink:cfg.sink (O.name ^ suffix ^ "-chaos")
    in
    let o = O.create ~sink:cfg.sink alloc in
    let table =
      O.with_guard o (fun g ->
          Array.init cfg.slots (fun i ->
              let p = O.alloc_node g (amk o i) in
              O.new_link_v g (O.Ptr.view p)))
    in
    let killed, abandoned, forced, peak, errors =
      drive cfg
        ~worker:(fun ~tid ~rng ~out -> worker o table cfg ~tid ~rng ~out)
        ~sample:(fun () -> O.unreclaimed o)
    in
    O.with_guard o (fun g ->
        Array.iter (fun slot -> O.store_v g slot Link.v_null) table);
    O.flush o;
    {
      name = O.name ^ suffix;
      domains = cfg.waves * cfg.domains_per_wave;
      killed;
      abandoned;
      force_released = forced;
      peak_unreclaimed = peak;
      leaked = Memdom.Alloc.live alloc;
      unreclaimed_after = O.unreclaimed o;
      orphaned_after = 0;
      pool_hits = Memdom.Alloc.pool_hits alloc;
      pool_misses = Memdom.Alloc.pool_misses alloc;
      remote_frees = Memdom.Alloc.remote_frees alloc;
      errors;
    }
end

module Orc = Auto_battery (Orc_core.Orc.Make (AN))
module Orc_hp = Auto_battery (Orc_core.Orc.Make_hp (AN))

(* Pool-mode batteries are a representative subset (one manual HP-style
   scheme, the paper's PTP, and automatic OrcGC) rather than all eight:
   the pool machinery under test is the same for every scheme, and the
   full cross-product would double the slowest test in the suite. *)
let batteries =
  [
    ("hp", fun cfg -> Hp.run cfg);
    ("ptb", fun cfg -> Ptb.run cfg);
    ("ebr", fun cfg -> Ebr.run cfg);
    ("he", fun cfg -> He.run cfg);
    ("ibr", fun cfg -> Ibr.run cfg);
    ("ptp", fun cfg -> Ptp.run cfg);
    ("orc", fun cfg -> Orc.run cfg);
    ("orc-hp", fun cfg -> Orc_hp.run cfg);
    ("hp-pool", fun cfg -> Hp.run ~mode:Memdom.Alloc.Pool cfg);
    ("ptp-pool", fun cfg -> Ptp.run ~mode:Memdom.Alloc.Pool cfg);
    ("orc-pool", fun cfg -> Orc.run ~mode:Memdom.Alloc.Pool cfg);
  ]

let run name cfg = (List.assoc name batteries) cfg

(* ------------------------------------------------------------------ *)
(* Stalled guard: detection and neutralization                         *)
(* ------------------------------------------------------------------ *)

type stall_report = {
  st_victim : int;
  st_ticks : int;
  st_stalls : int;
  st_age_max : int;
  st_detected : bool;
  st_neutralized : bool;
  st_cleared : bool;
  st_pinned_freed : bool;
  st_victim_raised : bool;
  st_kills : int;
  st_forced : int;
  st_unreclaimed_after : int;
  st_leaked : int;
  st_errors : string list;
}

let stall_ok r =
  r.st_errors = [] && r.st_detected && r.st_neutralized && r.st_cleared
  && r.st_pinned_freed && r.st_victim_raised
  && r.st_forced = r.st_kills
  && r.st_unreclaimed_after = 0
  && r.st_leaked = 0

let pp_stall_report fmt r =
  Format.fprintf fmt
    "@[<v 2>stall-hp: victim tid %d, %d ticks, %d stall reports (age max \
     %d)@,\
     detected %b, neutralized %b, cleared while parked %b, pinned freed \
     %b, victim raised %b@,\
     %d mid-stall kills (%d force-released)@,\
     after quiesce: leaked %d, unreclaimed %d%a@]"
    r.st_victim r.st_ticks r.st_stalls r.st_age_max r.st_detected
    r.st_neutralized r.st_cleared r.st_pinned_freed r.st_victim_raised
    r.st_kills r.st_forced r.st_leaked r.st_unreclaimed_after pp_errors
    r.st_errors

module Stall_hp = Reclaim.Hp.Make (CN)

let stall_age = 3

(* Poll [pred] every millisecond until it holds or [deadline] seconds
   pass; a timeout is reported to [fail], never a hang. *)
let await ~fail ~deadline what pred =
  let until = Unix.gettimeofday () +. deadline in
  let rec go () =
    pred () || (Unix.gettimeofday () < until && (Unix.sleepf 0.001; go ()))
  in
  go () || (fail (Printf.sprintf "%s: not within %gs" what deadline); false)

(* Park one domain inside a guard with a protection pinning a table
   node while churners evict, retire and scan inline around it.  The
   background domain, started neutralizing, must report the stall
   (a [Stall] event naming the victim at [stall_age] ticks or more)
   and expire the guard in the same pass (a [Neutralize] event after
   it); the watchdog must then stop flagging the victim and a
   churner's scan must free the pinned node, both with the victim
   still parked.  While the stall ages, two more domains die abruptly
   inside a guard (slots Active, hazards up) and are force-released.
   The waking victim's next protection acquisition must raise
   [Neutralized] instead of handing out a protection built on the
   expired slots, and nothing may leak or stay unreclaimed. *)
let run_stall () =
  let errors = Atomic.make [] in
  let rec fail msg =
    let l = Atomic.get errors in
    if not (Atomic.compare_and_set errors l (msg :: l)) then fail msg
  in
  let err e = fail (Printexc.to_string e) in
  let await = await ~fail in
  let alloc = Memdom.Alloc.create "stall-chaos" in
  let s = Stall_hp.create ~max_hps:4 alloc in
  let mk v = { hdr = Memdom.Alloc.hdr alloc (); payload = v } in
  let pinned = mk 0 in
  let arena = cnode_arena () in
  let table =
    Array.init 4 (fun i ->
        Link.make_in arena (Link.Ptr (if i = 0 then pinned else mk i)))
  in
  let sink = Obs.Sink.make () in
  (* a fresh registry keeps this battery's series out of the default
     one; the watchdog is process-global, so detection needs no
     per-battery wiring *)
  let domain =
    Reclaim.Reclaimer.start ~registry:(Obs.Metrics.create ()) ~sink
      ~stall_age ~neutralize:true ()
  in
  (* the watchdog only stamps once the tick is live *)
  let t0 = Obs.Watchdog.tick () in
  ignore
    (await ~deadline:5. "first tick" (fun () -> Obs.Watchdog.tick () > t0));
  let victim_tid = Atomic.make (-1) in
  let release = Atomic.make false in
  let victim_raised = Atomic.make false in
  let victim =
    Domain.spawn (fun () ->
        try
          Registry.with_tid (fun tid ->
              (* entering the park can itself be neutralized: on a
                 loaded box the domain may be descheduled past
                 [stall_age] ticks right after [begin_op], and the
                 first protected read raises.  That is the handshake
                 working, not the scenario under test — retry from the
                 top under fresh state until the park settles *)
              let rec park () =
                try
                  Stall_hp.begin_op s ~tid;
                  ignore (Stall_hp.get_protected_v s ~tid ~idx:0 table.(0));
                  Atomic.set victim_tid tid;
                  while not (Atomic.get release) do
                    Unix.sleepf 0.001
                  done
                with Reclaim.Neutralize.Neutralized _ -> park ()
              in
              park ();
              (* the guard was expired while we slept, so the wake-up
                 protection acquisition must refuse — handing out a
                 validated protection here would be a use-after-free
                 in waiting *)
              (match Stall_hp.get_protected_v s ~tid ~idx:1 table.(1) with
              | _ -> ()
              | exception Reclaim.Neutralize.Neutralized _ ->
                  Atomic.set victim_raised true);
              Stall_hp.end_op s ~tid)
        with e -> err e)
  in
  (* a victim that raises before it parks ends the wait at once *)
  ignore
    (await ~deadline:5. "victim parked" (fun () ->
         Atomic.get victim_tid >= 0 || Atomic.get errors <> []));
  let vtid = Atomic.get victim_tid in
  let victim_events kind =
    List.concat_map Array.to_list (Obs.Sink.events sink)
    |> List.filter (fun (e : Obs.Event.t) -> e.kind = kind && e.uid = vtid)
  in
  (* the stall itself, once the victim is parked *)
  let observe () =
    (* churners run until told to stop: their scans need fresh retirees
       crossing the threshold *)
    let stop_churn = Atomic.make false in
    let churn =
      List.init 2 (fun ci ->
          Domain.spawn (fun () ->
              try
                Registry.with_tid (fun tid ->
                    let rng = Rng.create (0xFACE + ci) in
                    let k = ref 0 in
                    (* a churner descheduled past [stall_age] ticks
                       mid-guard gets neutralized too; [retire] is the
                       raise point on this loop, and abandoning the
                       unlinked node there would read as a leak at
                       quiesce.  The raise consumed the pending flag,
                       so the immediate retry runs under fresh state *)
                    let rec retire_out o =
                      try Stall_hp.retire s ~tid o
                      with Reclaim.Neutralize.Neutralized _ -> retire_out o
                    in
                    while not (Atomic.get stop_churn) do
                      incr k;
                      Stall_hp.begin_op s ~tid;
                      let n = mk !k in
                      Stall_hp.protect_raw s ~tid ~idx:0 (Some n);
                      let old =
                        evict arena table.(Rng.int rng 4)
                          (Link.v_ptr_in arena n)
                      in
                      Stall_hp.end_op s ~tid;
                      Option.iter retire_out old;
                      if !k land 0x3F = 0 then Domain.cpu_relax ()
                    done)
              with e -> err e))
    in
    (* with the stall ageing, domains die abruptly inside a guard and
       are force-released; a doomed domain neutralized before it
       settles re-enters, like the victim's park *)
    let doomed =
      List.init 2 (fun ki ->
          Domain.spawn (fun () ->
              try
                let rng = Rng.create (0xDEAD + ki) in
                let tid = Registry.tid () in
                let rec enter () =
                  try
                    Stall_hp.begin_op s ~tid;
                    ignore
                      (Stall_hp.get_protected_v s ~tid ~idx:0
                         table.(Rng.int rng 4))
                  with Reclaim.Neutralize.Neutralized _ -> enter ()
                in
                enter ();
                Registry.abandon ()
              with e ->
                err e;
                -1))
    in
    let killed = List.filter (( <= ) 0) (List.map Domain.join doomed) in
    let forced = List.filter Registry.force_release killed in
    let stalled (e : Obs.Event.t) = e.arg >= stall_age in
    let detected =
      await ~deadline:10. "Stall event naming the victim" (fun () ->
          List.exists stalled (victim_events Stall))
    in
    (* the same pass that reported the stall fires on it, so the
       Neutralize event follows a Stall event in the domain's lane *)
    let after_stall (n : Obs.Event.t) =
      List.exists
        (fun (e : Obs.Event.t) -> stalled e && e.tid = n.tid && e.seq < n.seq)
        (victim_events Stall)
    in
    let neutralized =
      detected
      && await ~deadline:10. "Neutralize event after the victim's Stall"
           (fun () -> List.exists after_stall (victim_events Neutralize))
    in
    (* with its generation bumped the parked victim's row no longer
       validates, and its expired protections no longer pin the node:
       churn frees it, restoring the running O(Ht) bound *)
    let cleared =
      neutralized
      && await ~deadline:5. "watchdog stops flagging the parked victim"
           (fun () ->
             not
               (List.mem_assoc vtid (Obs.Watchdog.check ~max_age:stall_age ())))
    in
    let pinned_freed =
      neutralized
      && await ~deadline:10. "pinned node freed while the victim parks"
           (fun () -> Memdom.Hdr.is_freed pinned.hdr)
    in
    Atomic.set stop_churn true;
    List.iter Domain.join churn;
    ( List.length killed,
      List.length forced,
      detected,
      neutralized,
      cleared,
      pinned_freed )
  in
  let kills, forced, detected, neutralized, cleared, pinned_freed =
    if vtid < 0 then (0, 0, false, false, false, false) else observe ()
  in
  Atomic.set release true;
  Domain.join victim;
  let ticks = Reclaim.Reclaimer.ticks domain in
  let stalls = Reclaim.Reclaimer.stalls domain in
  (try Reclaim.Reclaimer.stop domain with e -> err e);
  (* quiesce and check every object was recovered *)
  let tid = Registry.tid () in
  Array.iter
    (fun slot ->
      Option.iter (Stall_hp.retire s ~tid) (evict arena slot Link.v_null))
    table;
  Stall_hp.flush s;
  {
    st_victim = vtid;
    st_ticks = ticks;
    st_stalls = stalls;
    st_age_max =
      List.fold_left
        (fun acc (e : Obs.Event.t) -> max acc e.arg)
        0 (victim_events Stall);
    st_detected = detected;
    st_neutralized = neutralized;
    st_cleared = cleared;
    st_pinned_freed = pinned_freed;
    st_victim_raised = Atomic.get victim_raised;
    st_kills = kills;
    st_forced = forced;
    st_unreclaimed_after = Stall_hp.unreclaimed s;
    st_leaked = Memdom.Alloc.live alloc;
    st_errors = List.rev (Atomic.get errors);
  }

(* ------------------------------------------------------------------ *)
(* Split-ordered map growth (directory doubling under domain death)    *)
(* ------------------------------------------------------------------ *)

type split_report = {
  sp_name : string;
  sp_domains : int;
  sp_killed : int;
  sp_mid_grow : int;
  sp_abandoned : int;
  sp_force_released : int;
  sp_grows : int;
  sp_buckets : int;
  sp_size : int;
  sp_invariant : bool;
  sp_sorted : bool;
  sp_leaked : int;
  sp_unreclaimed_after : int;
  sp_errors : string list;
}

let split_ok r =
  r.sp_errors = [] && r.sp_grows >= 3 && r.sp_mid_grow > 0 && r.sp_invariant
  && r.sp_sorted
  && r.sp_force_released = r.sp_abandoned
  && r.sp_leaked = 0 && r.sp_unreclaimed_after = 0

let pp_split_report fmt r =
  Format.fprintf fmt
    "@[<v 2>%s: %d domains, %d killed (%d mid-grow, %d abandoned, %d \
     force-released)@,\
     %d grows -> %d buckets, %d keys; invariant %b, sorted %b; after \
     quiesce: leaked %d, unreclaimed %d%a@]"
    r.sp_name r.sp_domains r.sp_killed r.sp_mid_grow r.sp_abandoned
    r.sp_force_released r.sp_grows r.sp_buckets r.sp_size r.sp_invariant
    r.sp_sorted r.sp_leaked r.sp_unreclaimed_after
    pp_errors
    r.sp_errors

module Split_orc = Ds.Orc_split_map.Make ()
module Split_hp = Ds.Split_map.Make (Reclaim.Hp.Make)

(* Insert-heavy churn over a split-ordered map so the directory doubles
   repeatedly during the storm; a domain that witnesses a doubling
   usually dies on the spot — sometimes abruptly ([Registry.abandon],
   slot left Active) — leaving the freshly split buckets' directory
   entries still Null.  Survivors must complete the lazy recursive
   bucket initialization (adopt the half-finished grow), the scheme's
   orphan protocol must adopt the dead domains' retire backlogs, and
   the quiesced map must be structurally intact with zero leaks. *)
let split_battery (type t)
    (module M : Ds.Orc_split_map.MAP with type t = t) name cfg ~span =
  let s = M.create () in
  let mid_grow = Atomic.make 0 in
  let worker ~tid:_ ~rng ~out =
    for _ = 1 to cfg.ops do
      let k = 1 + Rng.int rng span in
      let g0 = M.grows s in
      (match Rng.int rng 8 with
      | 0 | 1 -> ignore (M.remove s k)
      | 2 -> ignore (M.contains s k)
      | _ -> ignore (M.add s k));
      if M.grows s > g0 && Rng.int rng 2 = 0 then begin
        (* die right after a doubling published the larger size; the
           first such death is always abrupt, so every run covers the
           abandon path however few doublings it witnesses *)
        if Atomic.fetch_and_add mid_grow 1 = 0 || Rng.int rng 3 = 0 then
          out := `Abandoned (Registry.abandon ())
        else out := `Killed;
        raise Killed
      end
      else if cfg.kill_every > 0 && Rng.int rng cfg.kill_every = 0 then begin
        out := `Killed;
        raise Killed
      end
    done
  in
  let killed, abandoned, forced, _peak, errors =
    drive cfg ~worker ~sample:(fun () -> M.unreclaimed s)
  in
  let l = M.to_list s in
  let sorted = List.sort_uniq compare l = l in
  let invariant = M.invariant s in
  let grows = M.grows s and buckets = M.buckets s in
  M.destroy s;
  M.flush s;
  {
    sp_name = name;
    sp_domains = cfg.waves * cfg.domains_per_wave;
    sp_killed = killed;
    sp_mid_grow = Atomic.get mid_grow;
    sp_abandoned = abandoned;
    sp_force_released = forced;
    sp_grows = grows;
    sp_buckets = buckets;
    sp_size = List.length l;
    sp_invariant = invariant;
    sp_sorted = sorted;
    sp_leaked = Memdom.Alloc.live (M.alloc s);
    sp_unreclaimed_after = M.unreclaimed s;
    sp_errors = errors;
  }

let run_split_grow () =
  let cfg =
    {
      default with
      waves = 6;
      domains_per_wave = 6;
      ops = 1_500;
      kill_every = 400;
      seed = 0x5011D;
    }
  in
  [
    split_battery (module Split_orc) "split-orc" cfg ~span:2_000;
    split_battery (module Split_hp) "split-hp" cfg ~span:2_000;
  ]
