(** Hazard eras (Ramalhete & Correia [25]) — era baseline.

    Combines pointer-based protection with EBR-style epochs: instead of
    publishing the pointer, a thread publishes the current *era*; an
    object is protected by a published era [e] iff its lifetime interval
    [birth_era, death_era] contains [e].  Protection avoids a store per
    distinct pointer when the era has not moved, trading a much larger
    memory bound — O(#L·H·t²), every object alive at a protected era is
    pinned (Table 1).

    Eras come from the allocator's era clock: each allocation stamps
    [birth_era] and each retire stamps [death_era] and bumps the clock
    every [era_freq] retires. *)

open Atomicx

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t

  let none_era = 0

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    he : int Atomic.t array array; (* published eras, [tid][idx] *)
    retired : node list ref array;
    retired_count : int ref array;
    retire_count : int ref array;
    scratch : Scan_set.t array; (* [tid]; per-scan era snapshots *)
    threshold : int Atomic.t;
    (* cached scaled R (Tuning.threshold), refreshed on crossing,
       quarantine and neutralization *)
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

  let name = "he"
  let max_hps t = t.hps

  let begin_op t ~tid =
    Neutralize.ack ~tid;
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid

  let clear t ~tid ~idx = Atomic.set t.he.(tid).(idx) none_era

  let end_op t ~tid =
    for idx = 0 to t.hps - 1 do
      clear t ~tid ~idx
    done;
    Neutralize.ack ~tid;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* Same era-publication protocol on the view plane: the node itself
     plays no part in an era reservation, so the loop is read-view /
     read-era / publish-era — allocation-free on both representations
     (hoisted to functor level: an inner [let rec] would cost a closure
     per call). *)
  let rec gpv_loop t ~tid slot link prev =
    let v = Link.view link in
    let era = Memdom.Alloc.era t.alloc in
    if era = prev then begin
      Scheme_intf.Counters.elided t.counters ~tid;
      v
    end
    else begin
      Atomic.set slot era;
      gpv_loop t ~tid slot link era
    end

  let get_protected_v t ~tid ~idx link =
    Neutralize.check ~tid;
    let slot = t.he.(tid).(idx) in
    gpv_loop t ~tid slot link (Atomic.get slot)

  let protect_raw t ~tid ~idx n =
    match n with
    | None -> ()
    | Some _ ->
        let era = Memdom.Alloc.era t.alloc in
        let slot = t.he.(tid).(idx) in
        (* same elision on the unvalidated path: a slot already
           publishing the current era protects everything it would
           after the store *)
        if Atomic.get slot = era then
          Scheme_intf.Counters.elided t.counters ~tid
        else Atomic.set slot era

  (* copying must carry the original era: a fresh era would not cover a
     node already retired under an older one *)
  let copy_protection t ~tid ~src ~dst =
    Neutralize.check ~tid;
    Atomic.set t.he.(tid).(dst) (Atomic.get t.he.(tid).(src))

  let free_node t ~tid n =
    Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  (* Snapshot every published era once; a node is protected iff some
     published era falls inside its [birth, death] interval, which the
     sealed point set answers as a range-membership query. *)
  let build_snapshot t ~tid ~visited =
    let s = t.scratch.(tid) in
    Scan_set.reset s;
    for it = 0 to Registry.registered () - 1 do
      if Registry.in_use it then
        for idx = 0 to t.hps - 1 do
          incr visited;
          let e = Atomic.get t.he.(it).(idx) in
          if e <> none_era then Scan_set.add s e
        done
    done;
    Scan_set.seal s;
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
          Scan_set.mem_range s ~lo:(Memdom.Hdr.birth_era h)
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

  (* R = 2·H·t from the live Active-slot population, cached and
     refreshed on crossing (see [Hp.threshold_crossed]); HE previously
     used a flat 128, which under-batched past 8 threads. *)
  let refresh_threshold t =
    Atomic.set t.threshold (Tuning.threshold t.tuning ~hps:t.hps)

  let threshold_crossed t ~tid =
    !(t.retired_count.(tid)) >= Atomic.get t.threshold
    && begin
         refresh_threshold t;
         !(t.retired_count.(tid)) >= Atomic.get t.threshold
       end

  (* Background drain — see [Hp.drain_background].  Death eras are
     header stamps, so the shipped nodes carry everything the
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

  (* Quarantine cleaner: drop the departing tid's published eras (an
     era left behind would pin every object alive at it, forever) and
     publish its retired list for adoption.  Retire-epoch stamps live in
     the headers, so the bare nodes carry everything a survivor's scan
     needs. *)
  let orphan t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.he.(tid).(idx) none_era
    done;
    refresh_threshold t;
    match !(t.retired.(tid)) with
    | [] -> ()
    | batch ->
        t.retired.(tid) := [];
        t.retired_count.(tid) := 0;
        Orphan.publish t.orphans t.sink ~tid batch

  let orphaned t = Orphan.pending t.orphans

  (* Neutralize hook: drop the victim's published eras — each one pins
     every object whose lifetime interval contains it, which is the
     O(#L*H*t^2) worth of memory a stalled HE reader holds hostage. *)
  let neutralize_clear t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.he.(tid).(idx) none_era
    done;
    refresh_threshold t

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let mk_slots _ = Padded.atomic_array max_hps none_era in
    let t =
      {
        alloc;
        sink;
        hps = max_hps;
        he = Array.init Registry.max_threads mk_slots;
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
