(** Pass-the-buck (Herlihy, Luchangco & Moir [14]) — manual baseline.

    Guards are hazard slots; what differs from HP is [liberate]: a retired
    value found trapped by a guard is *handed off* to that guard through a
    versioned handoff slot (the paper's DWCAS — here a CAS on an immutable
    [(value, version)] box, which is atomic over both fields for free).
    The previous occupant of the handoff re-enters the liberation
    worklist.  Clearing a guard drains its handoff back into the owner's
    retired list.

    Each liberating thread still gathers a list proportional to the
    number of trapped values, so the bound stays O(Ht²) (Table 1) — the
    handover idea is what PTP (Algorithm 2) sharpens into a linear bound
    by *pushing* pointers forward instead of gathering them. *)

open Atomicx

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t
  type handoff = { v : node option; ver : int }

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    (* guards, [tid][idx]: the guarded node's uid, one word per slot
       (-1 = lowered), as in hp.ml *)
    post : int Atomic.t array array;
    handoff : handoff Atomic.t array array;
    retired : node list ref array;
    scratch : Scan_set.t array; (* [tid]; per-liberate guard snapshots *)
    threshold : int Atomic.t;
    (* cached scaled R (Tuning.threshold), refreshed on crossing,
       quarantine and neutralization *)
    mutable tuning : Tuning.t;
    counters : Scheme_intf.Counters.t;
    orphans : node Orphan.t;
    wd : Obs.Watchdog.t; (* guard-stall stamp table *)
    bg : Channel.t option Atomic.t; (* background drain route *)
    (* strong reference keeping the weakly-registered quarantine
       cleaner alive exactly as long as this scheme *)
    mutable lifecycle : int -> unit;
    (* likewise for the neutralize hook (atomic-state-only clear) *)
    mutable neutralizer : int -> unit;
    (* strong reference keeping the weakly-registered metrics probes
       alive exactly as long as this scheme *)
    mutable metrics : (string * (unit -> int)) list;
  }

  let name = "ptb"
  let max_hps t = t.hps

  let begin_op t ~tid =
    Neutralize.ack ~tid;
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid

  let uid n = (N.hdr n).Memdom.Hdr.uid

  let protect_raw t ~tid ~idx n =
    Atomic.set t.post.(tid).(idx) (match n with Some n -> uid n | None -> -1)

  let copy_protection t ~tid ~src ~dst =
    Neutralize.check ~tid;
    Atomic.set t.post.(tid).(dst) (Atomic.get t.post.(tid).(src))

  (* Guard posting publishes the target's uid and validates the triple
     (view, node, uid) against a re-read, exactly as hp.ml's protect
     loop (without its elision): an unchanged word does not prove the
     arena slot kept its meaning, and a pooled node can be recycled
     under a new uid.  Functor-level so the loop allocates no closure. *)
  let rec post_loop slot link v =
    if not (Link.v_has_target v) then begin
      Atomic.set slot (-1);
      let v' = Link.view link in
      if Link.view_eq v' v then v else post_loop slot link v'
    end
    else begin
      let n = Link.v_target_exn link v in
      let u = uid n in
      Atomic.set slot u;
      let v' = Link.view link in
      if Link.view_eq v' v && Link.v_target_exn link v == n && uid n = u then v
      else post_loop slot link v'
    end

  let get_protected_v t ~tid ~idx link =
    Neutralize.check ~tid;
    post_loop t.post.(tid).(idx) link (Link.view link)

  let free_node t ~tid n =
    Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  (* Snapshot every raised guard once, keyed by the trapped node's uid
     with the guard's coordinates packed into the payload, so each
     worklist item resolves its trapping guard in O(log Ht) instead of
     a fresh O(Ht) walk.  Free rows post no guards (cleared on
     quarantine) and are skipped, see [Registry.in_use].  A guard
     raised after the snapshot belongs to a thread whose validation
     re-read finds the value already unlinked; a guard lowered after
     the snapshot at worst receives a handoff its owner's [clear]
     drains back. *)
  let build_snapshot t ~tid ~visited =
    let s = t.scratch.(tid) in
    Scan_set.reset s;
    for it = 0 to Registry.registered () - 1 do
      if Registry.in_use it then
        for idx = 0 to t.hps - 1 do
          incr visited;
          let u = Atomic.get t.post.(it).(idx) in
          if u >= 0 then Scan_set.add_kv s ~key:u ~value:((it * t.hps) + idx)
        done
    done;
    Scan_set.seal s;
    Scheme_intf.Counters.snapshot_built t.counters ~tid;
    Obs.Sink.on_snapshot t.sink ~tid ~entries:(Scan_set.size s)

  let liberate t ~tid values =
    let values =
      match Orphan.adopt t.orphans t.sink ~tid with
      | [] -> values
      | adopted -> List.rev_append adopted values
    in
    let began = Obs.Sink.scan_begin t.sink in
    let visited = ref 0 in
    build_snapshot t ~tid ~visited;
    let find_trap p =
      match Scan_set.find t.scratch.(tid) (uid p) with
      | -1 -> None
      | packed ->
          Scheme_intf.Counters.snapshot_hit t.counters ~tid;
          Some (packed / t.hps, packed mod t.hps)
    in
    let work = Queue.create () in
    List.iter (fun p -> Queue.add p work) values;
    let budget = ref (Queue.length work + (Registry.max_threads * t.hps) + 8) in
    let leftovers = ref [] in
    while not (Queue.is_empty work) do
      let p = Queue.pop work in
      if !budget <= 0 then leftovers := p :: !leftovers
      else begin
        decr budget;
        match find_trap p with
        | None -> free_node t ~tid p
        | Some (it, idx) ->
            let slot = t.handoff.(it).(idx) in
            let rec hand () =
              let h = Atomic.get slot in
              if Atomic.compare_and_set slot h { v = Some p; ver = h.ver + 1 }
              then match h.v with Some q -> Queue.add q work | None -> ()
              else hand ()
            in
            hand ()
      end
    done;
    t.retired.(tid) := !leftovers @ !(t.retired.(tid));
    Scheme_intf.Counters.scanned t.counters ~tid ~slots:!visited;
    Obs.Sink.scan_end t.sink ~tid ~slots:!visited ~began

  let clear t ~tid ~idx =
    Atomic.set t.post.(tid).(idx) (-1);
    let slot = t.handoff.(tid).(idx) in
    let h = Atomic.get slot in
    match h.v with
    | None -> ()
    | Some _ ->
        let h' = Atomic.exchange slot { v = None; ver = h.ver + 1 } in
        (match h'.v with
        | Some q -> t.retired.(tid) := q :: !(t.retired.(tid))
        | None -> ())

  let end_op t ~tid =
    for idx = 0 to t.hps - 1 do
      clear t ~tid ~idx
    done;
    Neutralize.ack ~tid;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* R = 2·H·t from the live Active-slot population, cached and
     refreshed on crossing (see [Hp.threshold_crossed]). *)
  let refresh_threshold t =
    Atomic.set t.threshold (Tuning.threshold t.tuning ~hps:t.hps)

  let threshold_crossed t ~count =
    count >= Atomic.get t.threshold
    && begin
         refresh_threshold t;
         count >= Atomic.get t.threshold
       end

  let set_background t ch = Atomic.set t.bg ch

  let retire t ~tid n =
    Neutralize.check ~tid;
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Scheme_intf.Counters.retired t.counters ~tid;
    t.retired.(tid) := n :: !(t.retired.(tid));
    if threshold_crossed t ~count:(List.length !(t.retired.(tid))) then begin
      let vs = !(t.retired.(tid)) in
      t.retired.(tid) := [];
      (* Background drain: the swapped-out worklist liberates on the
         reclaimer; a refused send (closed/full) liberates inline —
         see [Hp.drain_background] for the single-owner argument. *)
      let inline =
        match Atomic.get t.bg with
        | None -> true
        | Some ch ->
            let count = List.length vs in
            not
              (Channel.send ch ~tid ~count (fun ~tid:rtid ->
                   liberate t ~tid:rtid vs))
      in
      if inline then liberate t ~tid vs
    end

  (* Empty [tid]'s handoff slots, returning the values trapped there.
     The versioned exchange hands each value to exactly one drainer,
     even against the owner's own concurrent [clear]. *)
  let take_handoffs t ~tid =
    let trapped = ref [] in
    for idx = 0 to t.hps - 1 do
      let slot = t.handoff.(tid).(idx) in
      let h = Atomic.get slot in
      match h.v with
      | None -> ()
      | Some _ -> (
          let h' = Atomic.exchange slot { v = None; ver = h.ver + 1 } in
          match h'.v with
          | Some q -> trapped := q :: !trapped
          | None -> ())
    done;
    !trapped

  (* Quarantine cleaner: lower the departing tid's guards, then drain
     its handoff slots — a value trapped in a dead guard's handoff has
     no owner left to [clear] it back into a retired list — and publish
     everything for adoption by the next liberator. *)
  let orphan t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.post.(tid).(idx) (-1)
    done;
    refresh_threshold t;
    let batch = take_handoffs t ~tid @ !(t.retired.(tid)) in
    t.retired.(tid) := [];
    Orphan.publish t.orphans t.sink ~tid batch

  let orphaned t = Orphan.pending t.orphans

  (* Neutralize hook: lower the victim's guards and drain its handoff
     slots — both atomic planes.  Values trapped in the handoffs go to
     the orphan pool (the victim's plain retired list is off-limits
     while it may be alive). *)
  let neutralize_clear t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.post.(tid).(idx) (-1)
    done;
    refresh_threshold t;
    match take_handoffs t ~tid with
    | [] -> ()
    | batch -> Orphan.publish t.orphans t.sink ~tid batch

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let mk_posts _ = Padded.atomic_array max_hps (-1) in
    let mk_handoffs _ =
      Array.init max_hps (fun _ -> Atomic.make { v = None; ver = 0 })
    in
    let t =
      {
        alloc;
        sink;
        hps = max_hps;
        post = Array.init Registry.max_threads mk_posts;
        handoff = Array.init Registry.max_threads mk_handoffs;
        retired = Array.init Registry.max_threads (fun _ -> ref []);
        scratch = Array.init Registry.max_threads (fun _ -> Scan_set.create ());
        threshold = Atomic.make (max 2 (2 * max_hps));
        tuning = Tuning.create ();
        counters = Scheme_intf.Counters.create ();
        orphans = Orphan.create ();
        wd = Obs.Watchdog.create ();
        bg = Atomic.make None;
        lifecycle = ignore;
        neutralizer = ignore;
        metrics = [];
      }
    in
    t.lifecycle <- (fun tid -> orphan t ~tid);
    Registry.on_quarantine t.lifecycle;
    t.neutralizer <- (fun tid -> neutralize_clear t ~tid);
    Registry.on_neutralize t.neutralizer;
    t.metrics <-
      Scheme_intf.register_metrics ~scheme:name
        ~stats:(fun () -> Scheme_intf.Counters.stats t.counters)
        ~unreclaimed:(fun () -> Scheme_intf.Counters.unreclaimed t.counters)
        ~wd:t.wd ();
    t

  let unreclaimed t = Scheme_intf.Counters.unreclaimed t.counters
  let stats t = Scheme_intf.Counters.stats t.counters
  let pp_stats fmt t = Scheme_intf.pp_stats_record fmt (stats t)

  let tuning t = t.tuning

  let set_tuning t tn =
    t.tuning <- tn;
    refresh_threshold t

  (* Handoff slots are drained too: a value handed to a guard lowered
     after the liberator's snapshot waits there for its owner's next
     [clear], which an idle owner never runs.  Liberating it re-checks
     the guards, so a value still trapped is simply handed back. *)
  let flush t =
    for _ = 1 to 2 do
      for tid = 0 to Registry.registered () - 1 do
        let vs = take_handoffs t ~tid @ !(t.retired.(tid)) in
        t.retired.(tid) := [];
        liberate t ~tid vs
      done
    done
end
