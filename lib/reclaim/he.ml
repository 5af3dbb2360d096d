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
    every 16 retires of a thread. *)

open Atomicx

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t

  let none_era = 0

  type t = {
    sh : Shell.t;
    he : int Atomic.t array array; (* published eras, [tid][idx] *)
    scratch : Scan_set.t array; (* [tid]; per-scan era snapshots *)
    batch : node Batch.t;
  }

  let name = "he"
  let max_hps t = t.sh.hps
  let begin_op t ~tid = Shell.begin_op t.sh ~tid
  let clear t ~tid ~idx = Atomic.set t.he.(tid).(idx) none_era

  let lower t ~tid =
    for idx = 0 to t.sh.hps - 1 do
      clear t ~tid ~idx
    done

  let end_op t ~tid =
    lower t ~tid;
    Shell.end_op t.sh ~tid

  (* Same era-publication protocol on the view plane: the node itself
     plays no part in an era reservation, so the loop is read-view /
     read-era / publish-era — allocation-free on both representations
     (hoisted to functor level: an inner [let rec] would cost a closure
     per call). *)
  let rec gpv_loop t ~tid slot link prev =
    let v = Link.view link in
    let era = Memdom.Alloc.era t.sh.alloc in
    if era = prev then begin
      Scheme_intf.Counters.elided t.sh.counters ~tid;
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
        let era = Memdom.Alloc.era t.sh.alloc in
        let slot = t.he.(tid).(idx) in
        (* same elision on the unvalidated path: a slot already
           publishing the current era protects everything it would
           after the store *)
        if Atomic.get slot = era then
          Scheme_intf.Counters.elided t.sh.counters ~tid
        else Atomic.set slot era

  (* copying must carry the original era: a fresh era would not cover a
     node already retired under an older one *)
  let copy_protection t ~tid ~src ~dst =
    Neutralize.check ~tid;
    Atomic.set t.he.(tid).(dst) (Atomic.get t.he.(tid).(src))

  (* Snapshot every published era once; a node is protected iff some
     published era falls inside its [birth, death] interval, which the
     sealed point set answers as a range-membership query. *)
  let build_snapshot t ~tid ~visited =
    let s = t.scratch.(tid) in
    Scan_set.reset s;
    for it = 0 to Registry.registered () - 1 do
      if Registry.in_use it then
        for idx = 0 to t.sh.hps - 1 do
          incr visited;
          let e = Atomic.get t.he.(it).(idx) in
          if e <> none_era then Scan_set.add s e
        done
    done;
    Scan_set.seal s;
    Scheme_intf.Counters.snapshot_built t.sh.counters ~tid;
    Obs.Sink.on_snapshot t.sh.sink ~tid ~entries:(Scan_set.size s);
    s

  let protected t ~tid s n =
    let h = N.hdr n in
    if
      Scan_set.mem_range s ~lo:(Memdom.Hdr.birth_era h)
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
    Batch.scan t.batch t ~tid ~snapshot:build_snapshot ~keep:protected

  let retire t ~tid n =
    Shell.retire_era t.sh ~tid (N.hdr n);
    if Batch.push t.batch ~tid n then scan t ~tid

  (* Quarantine cleaner: drop the departing tid's published eras (an
     era left behind would pin every object alive at it, forever) and
     publish its retired list for adoption. *)
  let orphan t ~tid =
    lower t ~tid;
    Batch.orphan t.batch ~tid

  let orphaned t = Batch.orphaned t.batch

  (* Neutralize hook: drop the victim's published eras — each one pins
     every object whose lifetime interval contains it, which is the
     O(#L*H*t^2) worth of memory a stalled HE reader holds hostage. *)
  let neutralize_clear t ~tid =
    lower t ~tid;
    Batch.refresh t.batch

  let create ?max_hps ?sink alloc =
    let sh = Shell.create ?max_hps ?sink alloc in
    let t =
      {
        sh;
        he = Padded.atomic_matrix Registry.max_threads sh.hps none_era;
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
