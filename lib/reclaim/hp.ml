(** Hazard pointers (Michael [19]) — manual baseline scheme.

    Protection publishes the node's uid in a per-thread hazard slot and
    re-validates against the source link.  Retiring pushes the node onto a
    thread-local retired list; once the list exceeds a scan threshold the
    thread scans all published hazards and frees every retired node not
    currently protected.  Memory bound: each thread can hold a retired
    list proportional to [H * t], hence O(Ht²) unreclaimed overall —
    the quadratic bound PTP improves on (Table 1). *)

open Atomicx

module Make (N : Scheme_intf.NODE) = struct
  type node = N.t

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    (* The hazard plane: each slot publishes the protected node's uid,
       one unboxed word.  -1 = empty
       (uid 0 is a real uid: local 0 on tid 0).  Uids never repeat, so
       uid membership is exactly the physical-identity test for any
       node still retirable (see [build_snapshot]). *)
    hp_uid : int Atomic.t array array; (* [tid][idx] *)
    retired : node list ref array; (* thread-local retired lists *)
    retired_count : int ref array;
    scratch : Scan_set.t array; (* [tid]; per-thread scan snapshots *)
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

  let name = "hp"
  let max_hps t = t.hps

  let begin_op t ~tid =
    Neutralize.ack ~tid;
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid

  let uid n = (N.hdr n).Memdom.Hdr.uid

  (* Publishes the uid [n] carries now: the caller must own [n] or
     otherwise keep its life stable across the call. *)
  let protect_raw t ~tid ~idx n =
    Atomic.set t.hp_uid.(tid).(idx)
      (match n with Some n -> uid n | None -> -1)

  let copy_protection t ~tid ~src ~dst =
    Neutralize.check ~tid;
    Atomic.set t.hp_uid.(tid).(dst) (Atomic.get t.hp_uid.(tid).(src))

  let clear t ~tid ~idx = Atomic.set t.hp_uid.(tid).(idx) (-1)

  let end_op t ~tid =
    for idx = 0 to t.hps - 1 do
      clear t ~tid ~idx
    done;
    Neutralize.ack ~tid;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* The protect loop publishes the target's uid — no [Some] box, no
     allocation anywhere on the path — and then confirms not just that
     the link still holds the same view but that the view still names
     the same node carrying the same uid.  An arena slot can be
     released and re-issued between the deref and the publish, and a
     pooled node can be recycled under a new uid; the link's write
     stamp already rules both out for an unchanged word, and the
     re-deref keeps the check local to this loop.  Once the
     triple (view, node, uid) re-reads stable after the publish, any
     later retire of that node observes the published uid.

     Publication elision: when the slot already holds the uid (the
     common case on retry and re-traversal), the earlier seq-cst
     publish has protected that node continuously, so the store can be
     skipped and the view re-read alone validates.

     The loop lives at functor level with every free variable passed as
     an argument: an inner [let rec] capturing [slot]/[link] would cost
     a closure allocation per call (measured: 9 minor words per
     protect on the otherwise allocation-free path). *)
  let rec gpv_loop t ~tid slot link v =
    if not (Link.v_has_target v) then begin
      Atomic.set slot (-1);
      let v' = Link.view link in
      if Link.view_eq v' v then v else gpv_loop t ~tid slot link v'
    end
    else begin
      let n = Link.v_target_exn link v in
      let u = uid n in
      if Atomic.get slot = u then begin
        Scheme_intf.Counters.elided t.counters ~tid;
        Obs.Sink.on_elide t.sink ~tid;
        let v' = Link.view link in
        if Link.view_eq v' v then v else gpv_loop t ~tid slot link v'
      end
      else begin
        Atomic.set slot u;
        let v' = Link.view link in
        if Link.view_eq v' v && Link.v_target_exn link v == n && uid n = u
        then v
        else gpv_loop t ~tid slot link v'
      end
    end

  let get_protected_v t ~tid ~idx link =
    Neutralize.check ~tid;
    gpv_loop t ~tid t.hp_uid.(tid).(idx) link (Link.view link)

  let free_node t ~tid n =
    Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  (* Snapshot every live hazard row once into the caller's scratch set.
     Uid membership coincides with physical identity for every node the
     scan examines: a retired node's uid is immutable until it is
     freed, and uids are never reused.  Rows whose registry slot is
     Free are skipped outright: a recycled slot's hazards are cleared
     before it is re-issued, so scan cost tracks the live slot
     population (see [Registry.in_use]). *)
  let build_snapshot t ~tid ~visited =
    let s = t.scratch.(tid) in
    Scan_set.reset s;
    for it = 0 to Registry.registered () - 1 do
      if Registry.in_use it then
        for idx = 0 to t.hps - 1 do
          incr visited;
          let u = Atomic.get t.hp_uid.(it).(idx) in
          if u >= 0 then Scan_set.add s u
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
        if Scan_set.mem s (uid n) then begin
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

  (* The paper's R = 2·H·t amortization ratio (scaled by the tuning
     record's bounded multiplier), tracking the live thread population
     instead of a baked-in 8-thread default.  [t] is the {e Active}
     slot count, not the monotone [Registry.registered] high-water: the
     high-water never decreases, so a long-lived process that once ran
     many threads would batch forever.  Counting Active slots is
     O(registered), so the count is cached and refreshed only when the
     cached value is crossed — amortized O(1) per retire — plus on
     quarantine and neutralization, so the threshold shrinks promptly
     after domain death instead of waiting for the next crossing. *)
  let refresh_threshold t =
    Atomic.set t.threshold (Tuning.threshold t.tuning ~hps:t.hps)

  let threshold_crossed t ~tid =
    !(t.retired_count.(tid)) >= Atomic.get t.threshold
    && begin
         refresh_threshold t;
         !(t.retired_count.(tid)) >= Atomic.get t.threshold
       end

  (* Background drain: swap this thread's whole batch out and ship it
     to the reclaimer as a job that splices it into the {e running}
     thread's list and scans there.  Single-owner safe: the batch
     leaves [retired.(tid)] before the send, and on refusal (closed or
     full channel — the degradation path) nothing else has touched the
     empty list, so restoring and scanning inline is exact. *)
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
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Scheme_intf.Counters.retired t.counters ~tid;
    t.retired.(tid) := n :: !(t.retired.(tid));
    incr t.retired_count.(tid);
    if threshold_crossed t ~tid then
      match Atomic.get t.bg with
      | None -> scan t ~tid
      | Some ch -> drain_background t ~tid ch

  (* Quarantine cleaner: force-clear the departing tid's hazards and
     publish its pending retired list for adoption at survivors' next
     scan.  On the exit path this runs on the departing thread itself;
     on the force path the owner is provably dead, so the plain-ref
     fields are single-owner either way. *)
  let orphan t ~tid =
    for idx = 0 to t.hps - 1 do
      clear t ~tid ~idx
    done;
    (* the quarantined slot has already left the Active count, so this
       re-derives the shrunk R immediately instead of batching against
       a dead population until the next crossing *)
    refresh_threshold t;
    match !(t.retired.(tid)) with
    | [] -> ()
    | batch ->
        t.retired.(tid) := [];
        t.retired_count.(tid) := 0;
        Orphan.publish t.orphans t.sink ~tid batch

  let orphaned t = Orphan.pending t.orphans

  (* Neutralize hook: the victim may still be alive, so only its atomic
     state may be touched — the hazard row goes empty (unpinning the
     stalled guard's targets), the plain retired list stays the owner's
     (bounded by R, so it cannot break the O(Ht) bound). *)
  let neutralize_clear t ~tid =
    for idx = 0 to t.hps - 1 do
      clear t ~tid ~idx
    done;
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
        hp_uid =
          Array.init Registry.max_threads (fun _ ->
              Padded.atomic_array max_hps (-1));
        retired = Array.init Registry.max_threads (fun _ -> ref []);
        retired_count = Array.init Registry.max_threads (fun _ -> ref 0);
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

  let pending t ~tid = !(t.retired_count.(tid))
  let stall_age_max t = Obs.Watchdog.stall_age_max t.wd

  let flush t =
    for tid = 0 to Registry.registered () - 1 do
      scan t ~tid
    done
end
