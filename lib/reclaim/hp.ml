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
    sh : Shell.t;
    (* The hazard plane: each slot publishes the protected node's uid,
       one unboxed word.  -1 = empty
       (uid 0 is a real uid: local 0 on tid 0).  Uids never repeat, so
       uid membership is exactly the physical-identity test for any
       node still retirable (see [build_snapshot]). *)
    hp_uid : int Atomic.t array array; (* [tid][idx] *)
    scratch : Scan_set.t array; (* [tid]; per-thread scan snapshots *)
    batch : node Batch.t;
  }

  let name = "hp"
  let max_hps t = t.sh.hps
  let begin_op t ~tid = Shell.begin_op t.sh ~tid
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

  let lower t ~tid =
    for idx = 0 to t.sh.hps - 1 do
      clear t ~tid ~idx
    done

  let end_op t ~tid =
    lower t ~tid;
    Shell.end_op t.sh ~tid

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
        Scheme_intf.Counters.elided t.sh.counters ~tid;
        Obs.Sink.on_elide t.sh.sink ~tid;
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
        for idx = 0 to t.sh.hps - 1 do
          incr visited;
          let u = Atomic.get t.hp_uid.(it).(idx) in
          if u >= 0 then Scan_set.add s u
        done
    done;
    Scan_set.seal s;
    Scheme_intf.Counters.snapshot_built t.sh.counters ~tid;
    Obs.Sink.on_snapshot t.sh.sink ~tid ~entries:(Scan_set.size s);
    s

  (* The verdict: a snapshot hit keeps [n], a miss frees it. *)
  let protected t ~tid s n =
    if Scan_set.mem s (uid n) then begin
      Scheme_intf.Counters.snapshot_hit t.sh.counters ~tid;
      true
    end
    else begin
      Shell.free t.sh ~tid (N.hdr n);
      false
    end

  let scan t ~tid =
    Batch.scan t.batch t ~tid ~snapshot:build_snapshot ~keep:protected

  let retire t ~tid n =
    Shell.retire t.sh ~tid (N.hdr n);
    if Batch.push t.batch ~tid n then scan t ~tid

  (* Quarantine cleaner: force-clear the departing tid's hazards and
     publish its pending retired list for adoption at survivors' next
     scan. *)
  let orphan t ~tid =
    lower t ~tid;
    Batch.orphan t.batch ~tid

  let orphaned t = Batch.orphaned t.batch

  (* Neutralize hook: the victim may still be alive, so only its atomic
     state may be touched — the hazard row goes empty (unpinning the
     stalled guard's targets), the plain retired list stays the owner's
     (bounded by R, so it cannot break the O(Ht) bound). *)
  let neutralize_clear t ~tid =
    lower t ~tid;
    Batch.refresh t.batch

  let create ?max_hps ?sink alloc =
    let sh = Shell.create ?max_hps ?sink alloc in
    let t =
      {
        sh;
        hp_uid = Padded.atomic_matrix Registry.max_threads sh.hps (-1);
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
