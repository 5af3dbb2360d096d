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
    sh : Shell.t;
    lo : int Atomic.t array; (* reservation lower bound, [tid] *)
    hi : int Atomic.t array; (* reservation upper bound, [tid] *)
    scratch : Scan_set.t array; (* [tid]; per-scan reservation snapshots *)
    (* R = 2·H·t like hp/he.  The scan itself is O(t) — one interval
       per thread — but the *bound* the batch buys is still
       proportional to the live population, so a flat batch
       under-amortizes small runs and over-retains large ones. *)
    batch : node Batch.t;
  }

  let name = "ibr"
  let max_hps t = t.sh.hps
  let no_reservation = max_int

  let begin_op t ~tid =
    Shell.begin_op t.sh ~tid;
    let e = Memdom.Alloc.era t.sh.alloc in
    Atomic.set t.lo.(tid) e;
    Atomic.set t.hi.(tid) e

  let retract t ~tid =
    Atomic.set t.lo.(tid) no_reservation;
    Atomic.set t.hi.(tid) 0

  let end_op t ~tid =
    retract t ~tid;
    Shell.end_op t.sh ~tid

  (* Same interval-extension protocol on the view plane; the node plays
     no part in a reservation, so the loop allocates nothing on either
     representation (hoisted to functor level: an inner [let rec] would
     cost a closure per call). *)
  let rec gpv_loop t ~tid link =
    let v = Link.view link in
    let e = Memdom.Alloc.era t.sh.alloc in
    if e <= Atomic.get t.hi.(tid) then begin
      Scheme_intf.Counters.elided t.sh.counters ~tid;
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
    Scheme_intf.Counters.snapshot_built t.sh.counters ~tid;
    Obs.Sink.on_snapshot t.sh.sink ~tid ~entries:(Scan_set.size s);
    s

  let pinned t ~tid s n =
    let h = N.hdr n in
    if
      Scan_set.overlaps s ~lo:(Memdom.Hdr.birth_era h)
        ~hi:(Memdom.Hdr.death_era h)
    then begin
      Scheme_intf.Counters.snapshot_hit t.sh.counters ~tid;
      true
    end
    else begin
      Shell.free t.sh ~tid h;
      false
    end

  let scan t ~tid =
    Batch.scan t.batch t ~tid ~snapshot:build_snapshot ~keep:pinned

  let retire t ~tid n =
    Shell.retire_era t.sh ~tid (N.hdr n);
    if Batch.push t.batch ~tid n then scan t ~tid

  (* Quarantine cleaner: retract the departing tid's reservation
     interval (a leftover [lo, hi] would pin every overlapping lifetime
     forever — the §2 stalled-reader failure made permanent) and
     publish its retired list for adoption. *)
  let orphan t ~tid =
    retract t ~tid;
    Batch.orphan t.batch ~tid

  let orphaned t = Batch.orphaned t.batch

  (* Neutralize hook: retract the victim's reservation interval — a
     parked [lo, hi] pins every overlapping lifetime, the exact failure
     the watchdog flagged. *)
  let neutralize_clear t ~tid =
    retract t ~tid;
    Batch.refresh t.batch

  let create ?max_hps ?sink alloc =
    let sh = Shell.create ?max_hps ?sink alloc in
    let t =
      {
        sh;
        lo =
          Array.init Registry.max_threads (fun _ ->
              Atomic.make no_reservation);
        hi = Array.init Registry.max_threads (fun _ -> Atomic.make 0);
        scratch = Array.init Registry.max_threads (fun _ -> Scan_set.create ());
        batch = Shell.batch sh;
      }
    in
    Shell.register sh ~name
      ~orphan:(fun tid -> orphan t ~tid)
      ~neutralize:(fun tid -> neutralize_clear t ~tid);
    t

  let unreclaimed t = Shell.unreclaimed t.sh
  let stats t = Shell.stats t.sh
  let pp_stats fmt t = Shell.pp_stats fmt t.sh
  let flush t =
    for tid = 0 to Registry.registered () - 1 do
      scan t ~tid
    done
end
