(** The state and brackets every manual scheme shares: the batching
    schemes (HP, PTB, HE, IBR, EBR) and PTP alike.

    A scheme's record embeds one shell beside its own protection plane
    and, for a batching scheme, a {!Batch} engine built by {!batch}; a
    pass-the-pointer scheme (PTP, PTB) adds a {!Handover} plane built
    by {!handover}.  Only the protection plane and the scan's verdict
    are the scheme's own. *)

open Atomicx

type t = {
  alloc : Memdom.Alloc.t;
  sink : Obs.Sink.t;
  hps : int;
  counters : Scheme_intf.Counters.t;
  wd : Obs.Watchdog.t; (* guard-stall stamp table *)
  (* strong references keeping the weakly-registered quarantine
     cleaner, neutralize hook and metrics probes alive exactly as long
     as the scheme *)
  mutable lifecycle : int -> unit;
  mutable neutralizer : int -> unit;
  mutable metrics : (string * (unit -> int)) list;
}

(** [max_hps] defaults to 8 and [sink] to [Memdom.Alloc.sink alloc]. *)
let create ?(max_hps = 8) ?sink alloc =
  let sink = match sink with Some s -> s | None -> Memdom.Alloc.sink alloc in
  {
    alloc;
    sink;
    hps = max_hps;
    counters = Scheme_intf.Counters.create ();
    wd = Obs.Watchdog.create ();
    lifecycle = ignore;
    neutralizer = ignore;
    metrics = [];
  }

let unreclaimed sh = Scheme_intf.Counters.unreclaimed sh.counters
let stats sh : Scheme_intf.stats = Scheme_intf.Counters.stats sh.counters
let pp_stats fmt sh = Scheme_intf.pp_stats_record fmt (stats sh)
let stall_age_max sh = Obs.Watchdog.stall_age_max sh.wd

(** Register [counters] and [gauges] as metrics probes labelled
    [scheme = name].  Probes are held weakly: the caller keeps the
    returned closures alive. *)
let probes ~name ~counters ~gauges =
  let labels = [ ("scheme", name) ] in
  let probe ?counter (n, f) =
    Obs.Metrics.probe Obs.Metrics.default ~labels ?counter n f
  in
  List.iter (probe ~counter:true) counters;
  List.iter probe gauges;
  counters @ gauges

(** Register the scheme's quarantine cleaner and neutralize hook, and
    its stats, unreclaimed population and watchdog stall age as
    metrics probes labelled [name] (instances of one scheme aggregate
    by summation at sample time, the [Metrics.probe] contract). *)
let register sh ~name ~orphan ~neutralize =
  sh.lifecycle <- orphan;
  Registry.on_quarantine orphan;
  sh.neutralizer <- neutralize;
  Registry.on_neutralize neutralize;
  let counters =
    [
      ("orcgc_retires_total", fun () -> (stats sh).retires);
      ("orcgc_frees_total", fun () -> (stats sh).frees);
      ("orcgc_scans_total", fun () -> (stats sh).scans);
      ("orcgc_scan_slots_total", fun () -> (stats sh).scan_slots);
      ("orcgc_snapshot_builds_total", fun () -> (stats sh).snapshot_builds);
      ("orcgc_snapshot_hits_total", fun () -> (stats sh).snapshot_hits);
      ("orcgc_elided_total", fun () -> (stats sh).elided);
    ]
  and gauges =
    [
      ("orcgc_unreclaimed", fun () -> unreclaimed sh);
      ("orcgc_stall_age_max", fun () -> stall_age_max sh);
    ]
  in
  sh.metrics <- probes ~name ~counters ~gauges

(** A retired-list engine over this shell's hazard count, sink and
    scan counters. *)
let batch sh =
  Batch.create ~hps:sh.hps ~sink:sh.sink
    ~scans:sh.counters.Scheme_intf.Counters.scans
    ~scan_slots:sh.counters.Scheme_intf.Counters.scan_slots

(** A handover plane with one slot per hazard, over this shell's sink. *)
let handover sh =
  Handover.create ~slots:sh.hps ~sink:sh.sink ~handovers:(Shard.create ())

(** The scheme announces its own protection (an epoch, a reservation)
    after this. *)
let begin_op sh ~tid =
  Neutralize.ack ~tid;
  Obs.Watchdog.enter sh.wd ~tid;
  Obs.Sink.guard_begin sh.sink ~tid

(** The scheme lowers its own protections before this. *)
let end_op sh ~tid =
  Neutralize.ack ~tid;
  Obs.Sink.guard_end sh.sink ~tid;
  Obs.Watchdog.leave sh.wd ~tid

let mark_retired sh ~tid h =
  Neutralize.check ~tid;
  Memdom.Hdr.mark_retired h;
  Memdom.Hdr.set_retired_stamp h
    (Obs.Sink.on_retire sh.sink ~tid ~uid:h.Memdom.Hdr.uid)

(** The retire prologue: the raising neutralization check, then mark
    the header retired, stamp its retire time and count it. *)
let retire sh ~tid h =
  mark_retired sh ~tid h;
  Scheme_intf.Counters.retired sh.counters ~tid

(** The era schemes' (HE, IBR) retire prologue: {!retire}, plus the
    death-era stamp, and every 16th retire of this thread on this
    scheme advances the allocator's era clock. *)
let retire_era sh ~tid h =
  mark_retired sh ~tid h;
  Memdom.Hdr.set_death_era h (Memdom.Alloc.era sh.alloc);
  let n = Shard.fetch_incr sh.counters.Scheme_intf.Counters.retires ~tid in
  if (n + 1) mod 16 = 0 then ignore (Memdom.Alloc.bump_era sh.alloc)

let free sh ~tid h =
  Scheme_intf.Counters.freed sh.counters ~tid;
  Memdom.Alloc.free sh.alloc h
