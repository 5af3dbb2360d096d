(** 2GEIBR — the two-global-epoch variant of interval-based reclamation
    (Wen et al. [30]), the one IBR flavour the paper credits with
    lock-free progress and bounded memory (Table 1).

    Each thread maintains a single *reservation interval* [lo, hi] of
    eras instead of per-pointer hazards: [begin_op] pins both ends at the
    current era and every validated read extends [hi].  A retired node
    whose lifetime interval [birth_era, death_era] overlaps no
    reservation is free.  Reads are cheap (no store per pointer once the
    era is pinned) at the price of the O(#L·H·t²)-class bound: every
    object alive during a reservation stays pinned. *)

open Atomicx

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    lo : int Atomic.t array; (* reservation lower bound, [tid] *)
    hi : int Atomic.t array; (* reservation upper bound, [tid] *)
    retired : node list ref array;
    retired_count : int ref array;
    retire_count : int ref array;
    scratch : Scan_set.t array; (* [tid]; per-scan reservation snapshots *)
    (* cached R = 2·H·t, refreshed on crossing (same amortization as
       hp/he).  The scan itself is O(t) — one interval per thread — but
       the *bound* the batch buys is still proportional to the live
       population, so a flat batch under-amortizes small runs and
       over-retains large ones. *)
    threshold : int Atomic.t;
    mutable tuning : Tuning.t;
    era_freq : int;
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

  let name = "ibr"
  let max_hps t = t.hps
  let no_reservation = max_int

  let begin_op t ~tid =
    Neutralize.ack ~tid;
    Obs.Watchdog.enter t.wd ~tid;
    let e = Memdom.Alloc.era t.alloc in
    Atomic.set t.lo.(tid) e;
    Atomic.set t.hi.(tid) e;
    Obs.Sink.guard_begin t.sink ~tid

  let end_op t ~tid =
    Atomic.set t.lo.(tid) no_reservation;
    Atomic.set t.hi.(tid) 0;
    Neutralize.ack ~tid;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* Same interval-extension protocol on the view plane; the node plays
     no part in a reservation, so the loop allocates nothing on either
     representation (hoisted to functor level: an inner [let rec] would
     cost a closure per call). *)
  let rec gpv_loop t ~tid link =
    let v = Link.view link in
    let e = Memdom.Alloc.era t.alloc in
    if e <= Atomic.get t.hi.(tid) then begin
      Scheme_intf.Counters.elided t.counters ~tid;
      v
    end
    else begin
      Atomic.set t.hi.(tid) e;
      gpv_loop t ~tid link
    end

  let get_protected_v t ~tid ~idx:_ link =
    Neutralize.check ~tid;
    gpv_loop t ~tid link

  let protect_raw _t ~tid:_ ~idx:_ _n = ()
  let copy_protection _t ~tid ~src:_ ~dst:_ = Neutralize.check ~tid
  let clear _t ~tid:_ ~idx:_ = ()

  let free_node t ~tid n =
    Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  (* Snapshot every live reservation interval once; a node is pinned
     iff its [birth, death] lifetime intersects some reservation, which
     the sealed interval set (sorted by lower bound, running-max upper
     bounds) answers in O(log t). *)
  let build_snapshot t ~tid ~visited =
    let s = t.scratch.(tid) in
    Scan_set.reset s;
    for it = 0 to Registry.registered () - 1 do
      if Registry.in_use it then begin
        incr visited;
        let lo = Atomic.get t.lo.(it) and hi = Atomic.get t.hi.(it) in
        if lo <= hi then Scan_set.add_interval s ~lo ~hi
      end
    done;
    Scan_set.seal_intervals s;
    Scheme_intf.Counters.snapshot_built t.counters ~tid;
    Obs.Sink.on_snapshot t.sink ~tid ~entries:(Scan_set.size s)

  let scan t ~tid =
    (match Orphan.adopt t.orphans t.sink ~tid with
    | [] -> ()
    | adopted ->
        t.retired.(tid) := List.rev_append adopted !(t.retired.(tid));
        t.retired_count.(tid) := !(t.retired_count.(tid)) + List.length adopted);
    let began = Obs.Sink.scan_begin t.sink in
    let visited = ref 0 in
    let keep = ref [] and kept = ref 0 and release = ref [] in
    build_snapshot t ~tid ~visited;
    let s = t.scratch.(tid) in
    List.iter
      (fun n ->
        let h = N.hdr n in
        if
          Scan_set.overlaps s ~lo:(Memdom.Hdr.birth_era h)
            ~hi:(Memdom.Hdr.death_era h)
        then begin
          Scheme_intf.Counters.snapshot_hit t.counters ~tid;
          keep := n :: !keep;
          incr kept
        end
        else release := n :: !release)
      !(t.retired.(tid));
    t.retired.(tid) := !keep;
    t.retired_count.(tid) := !kept;
    List.iter (free_node t ~tid) !release;
    Scheme_intf.Counters.scanned t.counters ~tid ~slots:!visited;
    Obs.Sink.scan_end t.sink ~tid ~slots:!visited ~began

  (* The R = 2·H·t amortization ratio over the *Active* thread count,
     cached and refreshed only when the cached value is crossed —
     amortized O(1) per retire (see hp.ml for why Active, not the
     monotone registered high-water). *)
  let refresh_threshold t =
    Atomic.set t.threshold (Tuning.threshold t.tuning ~hps:t.hps)

  let threshold_crossed t ~tid =
    !(t.retired_count.(tid)) >= Atomic.get t.threshold
    && begin
         refresh_threshold t;
         !(t.retired_count.(tid)) >= Atomic.get t.threshold
       end

  (* Background drain — see [Hp.drain_background].  Lifetime intervals
     are header stamps, so the shipped nodes carry everything the
     reclaimer-side scan needs. *)
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

  let retire t ~tid n =
    Neutralize.check ~tid;
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    Memdom.Hdr.set_death_era h (Memdom.Alloc.era t.alloc);
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Scheme_intf.Counters.retired t.counters ~tid;
    t.retired.(tid) := n :: !(t.retired.(tid));
    incr t.retired_count.(tid);
    incr t.retire_count.(tid);
    if !(t.retire_count.(tid)) mod t.era_freq = 0 then
      ignore (Memdom.Alloc.bump_era t.alloc);
    if threshold_crossed t ~tid then
      match Atomic.get t.bg with
      | None -> scan t ~tid
      | Some ch -> drain_background t ~tid ch

  (* Quarantine cleaner: retract the departing tid's reservation
     interval (a leftover [lo, hi] would pin every overlapping lifetime
     forever — the §2 stalled-reader failure made permanent) and
     publish its retired list for adoption. *)
  let orphan t ~tid =
    Atomic.set t.lo.(tid) no_reservation;
    Atomic.set t.hi.(tid) 0;
    refresh_threshold t;
    match !(t.retired.(tid)) with
    | [] -> ()
    | batch ->
        t.retired.(tid) := [];
        t.retired_count.(tid) := 0;
        Orphan.publish t.orphans t.sink ~tid batch

  let orphaned t = Orphan.pending t.orphans

  (* Neutralize hook: retract the victim's reservation interval — a
     parked [lo, hi] pins every overlapping lifetime, the exact failure
     the watchdog flagged. *)
  let neutralize_clear t ~tid =
    Atomic.set t.lo.(tid) no_reservation;
    Atomic.set t.hi.(tid) 0;
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
        lo =
          Array.init Registry.max_threads (fun _ ->
              Atomic.make no_reservation);
        hi = Array.init Registry.max_threads (fun _ -> Atomic.make 0);
        retired = Array.init Registry.max_threads (fun _ -> ref []);
        retired_count = Array.init Registry.max_threads (fun _ -> ref 0);
        retire_count = Array.init Registry.max_threads (fun _ -> ref 0);
        scratch = Array.init Registry.max_threads (fun _ -> Scan_set.create ());
        threshold = Atomic.make (max 2 (2 * max_hps));
        tuning = Tuning.create ();
        era_freq = 16;
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

  let flush t =
    for tid = 0 to Registry.registered () - 1 do
      scan t ~tid
    done
end
