(** Epoch-based reclamation (Fraser [10], Hart et al. [13]) — the
    quiescence baseline.

    Threads announce the global epoch on [begin_op] and go quiescent on
    [end_op].  A node retired in epoch [e] is free once every active
    thread has announced an epoch [> e]; the global epoch only advances
    when all active threads have caught up, so a single stalled reader
    blocks reclamation entirely — EBR's protect is cheap and wait-free,
    but its retire is blocking and its memory usage unbounded (Table 1).
    It is included as the performance upper bound the lock-free schemes
    are measured against. *)

open Atomicx

module Make (N : Scheme_intf.NODE) = struct
  type node = N.t

  let quiescent = max_int

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    global_epoch : int Atomic.t;
    announce : int Atomic.t array; (* [tid]; [quiescent] when outside an op *)
    retired : (node * int) list ref array; (* (node, retire epoch) *)
    retired_count : int ref array;
    (* cached scaled threshold (Tuning.threshold): ebr historically used
       a flat 128 here, which over-retained small runs and
       under-amortized large ones; it now rides the same 2·H·t-derived
       cache as the pointer schemes, refreshed on crossing, quarantine
       and neutralization *)
    threshold : int Atomic.t;
    mutable tuning : Tuning.t;
    counters : Scheme_intf.Counters.t;
    orphans : (node * int) Orphan.t; (* batches keep their retire epochs *)
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

  let name = "ebr"
  let max_hps t = t.hps

  let begin_op t ~tid =
    Neutralize.ack ~tid;
    Obs.Watchdog.enter t.wd ~tid;
    Atomic.set t.announce.(tid) (Atomic.get t.global_epoch);
    Obs.Sink.guard_begin t.sink ~tid

  let end_op t ~tid =
    Atomic.set t.announce.(tid) quiescent;
    Neutralize.ack ~tid;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* Protection is implicit in the epoch announcement: the epoch
     announced at [begin_op] already protects everything reachable, so a
     read is a single allocation-free load — but the neutralization
     check is load-bearing: a neutralized reader's announcement went
     quiescent, so every subsequent read would be unprotected. *)
  let get_protected_v _t ~tid ~idx:_ link =
    Neutralize.check ~tid;
    Link.view link

  let protect_raw _t ~tid:_ ~idx:_ _n = ()
  let copy_protection _t ~tid ~src:_ ~dst:_ = Neutralize.check ~tid
  let clear _t ~tid:_ ~idx:_ = ()

  let min_announced t ~visited =
    let m = ref max_int in
    (* a Free row is quiescent by construction (the quarantine cleaner
       resets its announcement), so skipping it cannot hold the epoch
       back; a thread activating after our state read announces the
       current global epoch and cannot reach older retirees *)
    for it = 0 to Registry.registered () - 1 do
      if Registry.in_use it then begin
        incr visited;
        let e = Atomic.get t.announce.(it) in
        if e < !m then m := e
      end
    done;
    !m

  let try_advance t ~visited =
    let e = Atomic.get t.global_epoch in
    if min_announced t ~visited >= e then
      ignore (Atomic.compare_and_set t.global_epoch e (e + 1))

  let free_node t ~tid n =
    Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  let scan t ~tid =
    (match Orphan.adopt t.orphans t.sink ~tid with
    | [] -> ()
    | adopted ->
        t.retired.(tid) := List.rev_append adopted !(t.retired.(tid));
        t.retired_count.(tid) := !(t.retired_count.(tid)) + List.length adopted);
    let began = Obs.Sink.scan_begin t.sink in
    let visited = ref 0 in
    try_advance t ~visited;
    let safe = min (min_announced t ~visited) (Atomic.get t.global_epoch) in
    let keep = ref [] and kept = ref 0 and release = ref [] in
    List.iter
      (fun ((_, e) as r) ->
        if e >= safe - 1 then begin
          keep := r :: !keep;
          incr kept
        end
        else release := r :: !release)
      !(t.retired.(tid));
    t.retired.(tid) := !keep;
    t.retired_count.(tid) := !kept;
    List.iter (fun (n, _) -> free_node t ~tid n) !release;
    Scheme_intf.Counters.scanned t.counters ~tid ~slots:!visited;
    Obs.Sink.scan_end t.sink ~tid ~slots:!visited ~began

  (* Background drain — see [Hp.drain_background]; batches carry their
     retire epochs, so replaying them under the reclaimer's tid
     preserves the epoch-distance safety test exactly. *)
  let drain_background t ~tid ch =
    let batch = !(t.retired.(tid)) and n = !(t.retired_count.(tid)) in
    t.retired.(tid) := [];
    t.retired_count.(tid) := 0;
    let job ~tid:rtid =
      t.retired.(rtid) := List.rev_append batch !(t.retired.(rtid));
      t.retired_count.(rtid) := !(t.retired_count.(rtid)) + n;
      scan t ~tid:rtid
    in
    if not (Channel.send ch ~tid ~count:n job) then begin
      t.retired.(tid) := batch;
      t.retired_count.(tid) := n;
      scan t ~tid
    end

  let set_background t ch = Atomic.set t.bg ch

  let refresh_threshold t =
    Atomic.set t.threshold (Tuning.threshold t.tuning ~hps:t.hps)

  let threshold_crossed t ~tid =
    !(t.retired_count.(tid)) >= Atomic.get t.threshold
    && begin
         refresh_threshold t;
         !(t.retired_count.(tid)) >= Atomic.get t.threshold
       end

  let retire t ~tid n =
    Neutralize.check ~tid;
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Scheme_intf.Counters.retired t.counters ~tid;
    t.retired.(tid) := (n, Atomic.get t.global_epoch) :: !(t.retired.(tid));
    incr t.retired_count.(tid);
    if threshold_crossed t ~tid then
      match Atomic.get t.bg with
      | None -> scan t ~tid
      | Some ch -> drain_background t ~tid ch

  (* Quarantine cleaner: a departing thread must go quiescent (a stale
     announcement would stall the global epoch — §2's blocked-reclamation
     failure made permanent) and its epoch-stamped retired list goes to
     the orphan pool, where survivors fold it into their next scan. *)
  let orphan t ~tid =
    Atomic.set t.announce.(tid) quiescent;
    refresh_threshold t;
    match !(t.retired.(tid)) with
    | [] -> ()
    | batch ->
        t.retired.(tid) := [];
        t.retired_count.(tid) := 0;
        Orphan.publish t.orphans t.sink ~tid batch

  let orphaned t = Orphan.pending t.orphans

  (* Neutralize hook: force the victim quiescent — the single stalled
     announcement that blocks the global epoch (§2's failure mode) is
     exactly what neutralization exists to break.  The epoch-stamped
     retired list is owner-private plain state and stays put. *)
  let neutralize_clear t ~tid =
    Atomic.set t.announce.(tid) quiescent;
    refresh_threshold t

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let t =
      {
        alloc;
        sink;
        hps = max_hps;
        global_epoch = Atomic.make 2;
        announce =
          Array.init Registry.max_threads (fun _ -> Atomic.make quiescent);
        retired = Array.init Registry.max_threads (fun _ -> ref []);
        retired_count = Array.init Registry.max_threads (fun _ -> ref 0);
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

  let pending t ~tid = !(t.retired_count.(tid))
  let stall_age_max t = Obs.Watchdog.stall_age_max t.wd
  let global_epoch t = Atomic.get t.global_epoch
  let min_announced_now t = min_announced t ~visited:(ref 0)
  let try_advance_epoch t = try_advance t ~visited:(ref 0)

  let flush t =
    for _ = 1 to 3 do
      for tid = 0 to Registry.registered () - 1 do
        scan t ~tid
      done
    done
end
