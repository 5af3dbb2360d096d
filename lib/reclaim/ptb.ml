(** Pass-the-buck (Herlihy, Luchangco & Moir [14]) — manual baseline.

    Guards are hazard slots; what differs from HP is [liberate]: a retired
    value found trapped by a guard is *handed off* to that guard through
    its slot of the {!Handover} plane, and the previous occupant
    re-enters the liberation worklist.  Clearing a guard drains its
    handoff back into the owner's retired list.  The paper's DWCAS
    pairs each handoff with a version so that a value handed off once
    is drained once; every write to a slot here is one
    [Atomic.exchange], which already gives each value to exactly one
    drainer, so the slot is a plain word and the version is gone.

    Each liberating thread still gathers a list proportional to the
    number of trapped values, so the bound stays O(Ht²) (Table 1) — the
    handover idea is what PTP (Algorithm 2) sharpens into a linear bound
    by *pushing* pointers forward instead of gathering them. *)

open Atomicx

module Make (N : Scheme_intf.NODE) : Scheme_intf.S with type node = N.t = struct
  type node = N.t

  type t = {
    sh : Shell.t;
    (* guards, [tid][idx]: the guarded node's uid, one word per slot
       (-1 = lowered), as in hp.ml *)
    post : int Atomic.t array array;
    handoff : node Handover.t; (* [tid][idx], paired with [post] *)
    scratch : Scan_set.t array; (* [tid]; per-liberate guard snapshots *)
    batch : node Batch.t;
  }

  let name = "ptb"
  let max_hps t = t.sh.hps
  let begin_op t ~tid = Shell.begin_op t.sh ~tid
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
        for idx = 0 to t.sh.hps - 1 do
          incr visited;
          let u = Atomic.get t.post.(it).(idx) in
          if u >= 0 then
            Scan_set.add_kv s ~key:u ~value:((it * t.sh.hps) + idx)
        done
    done;
    Scan_set.seal s;
    Scheme_intf.Counters.snapshot_built t.sh.counters ~tid;
    Obs.Sink.on_snapshot t.sh.sink ~tid ~entries:(Scan_set.size s)

  (* PTB's scan: liberate [tid]'s whole retired list (orphans adopted
     first).  A value no guard traps is freed; a trapped one is handed
     to its guard's handoff slot and the slot's previous occupant joins
     the worklist.  Past the budget, the rest goes back on the list. *)
  let liberate t ~tid =
    Batch.adopt t.batch ~tid;
    let began = Obs.Sink.scan_begin t.sh.sink in
    let visited = ref 0 in
    build_snapshot t ~tid ~visited;
    let hps = t.sh.hps in
    let work = Queue.create () in
    List.iter (fun p -> Queue.add p work) (Batch.take t.batch ~tid);
    let budget = ref (Queue.length work + (Registry.max_threads * hps) + 8) in
    while not (Queue.is_empty work) do
      let p = Queue.pop work in
      if !budget <= 0 then Batch.add t.batch ~tid p
      else begin
        decr budget;
        let u = uid p in
        match Scan_set.find t.scratch.(tid) u with
        | -1 -> Shell.free t.sh ~tid (N.hdr p)
        | packed ->
            Scheme_intf.Counters.snapshot_hit t.sh.counters ~tid;
            let q =
              Handover.hand t.handoff ~tid ~row:(packed / hps)
                ~idx:(packed mod hps) ~uid:u p
            in
            if not (Handover.is_empty q) then Queue.add q work
      end
    done;
    Scheme_intf.Counters.scanned t.sh.counters ~tid ~slots:!visited;
    Obs.Sink.scan_end t.sh.sink ~tid ~slots:!visited ~began

  let clear t ~tid ~idx =
    Atomic.set t.post.(tid).(idx) (-1);
    let q = Handover.take t.handoff ~row:tid ~idx in
    if not (Handover.is_empty q) then Batch.add t.batch ~tid q

  let end_op t ~tid =
    for idx = 0 to t.sh.hps - 1 do
      clear t ~tid ~idx
    done;
    Shell.end_op t.sh ~tid

  let retire t ~tid n =
    Shell.retire t.sh ~tid (N.hdr n);
    if Batch.push t.batch ~tid n then liberate t ~tid

  let add t ~tid q = Batch.add t.batch ~tid q
  let publish t ~tid q = Batch.publish t.batch ~tid [ q ]

  let lower t ~tid =
    for idx = 0 to t.sh.hps - 1 do
      Atomic.set t.post.(tid).(idx) (-1)
    done

  (* Quarantine cleaner: lower the departing tid's guards, then drain
     its handoff slots — a value trapped in a dead guard's handoff has
     no owner left to [clear] it back into a retired list — and publish
     everything for adoption by the next liberator. *)
  let orphan t ~tid =
    lower t ~tid;
    Handover.adopt_row t.handoff t ~row:tid ~tid ~run:add;
    Batch.orphan t.batch ~tid

  let orphaned t = Batch.orphaned t.batch

  (* Neutralize hook: lower the victim's guards and drain its handoff
     slots — both atomic planes.  Values trapped in the handoffs go to
     the orphan pool (the victim's plain retired list is off-limits
     while it may be alive). *)
  let neutralize_clear t ~tid =
    lower t ~tid;
    Batch.refresh t.batch;
    Handover.adopt_row t.handoff t ~row:tid ~tid ~run:publish

  let create ?max_hps ?sink alloc =
    let sh = Shell.create ?max_hps ?sink alloc in
    let t =
      {
        sh;
        post = Padded.atomic_matrix Registry.max_threads sh.hps (-1);
        handoff = Shell.handover sh;
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
  (* Handoff slots are drained too: a value handed to a guard lowered
     after the liberator's snapshot waits there for its owner's next
     [clear], which an idle owner never runs.  Liberating it re-checks
     the guards, so a value still trapped is simply handed back. *)
  let flush t =
    for _ = 1 to 2 do
      for tid = 0 to Registry.registered () - 1 do
        Handover.adopt_row t.handoff t ~row:tid ~tid ~run:add;
        liberate t ~tid
      done
    done
end
