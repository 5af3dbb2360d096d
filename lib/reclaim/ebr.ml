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
    sh : Shell.t;
    global_epoch : int Atomic.t;
    announce : int Atomic.t array; (* [tid]; [quiescent] when outside an op *)
    batch : node Batch.t; (* tagged with the retire epoch *)
  }

  let name = "ebr"
  let max_hps t = t.sh.hps

  let begin_op t ~tid =
    Shell.begin_op t.sh ~tid;
    Atomic.set t.announce.(tid) (Atomic.get t.global_epoch)

  let end_op t ~tid =
    Atomic.set t.announce.(tid) quiescent;
    Shell.end_op t.sh ~tid

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

  (* The scan's snapshot is the oldest epoch any thread may still be
     reading in, after one advance attempt. *)
  let safe_epoch t ~tid:_ ~visited =
    try_advance t ~visited;
    min (min_announced t ~visited) (Atomic.get t.global_epoch)

  let within_grace t ~tid safe n e =
    if e >= safe - 1 then true
    else begin
      Shell.free t.sh ~tid (N.hdr n);
      false
    end

  let scan t ~tid =
    Batch.scan t.batch t ~tid ~snapshot:safe_epoch ~keep:within_grace

  let retire t ~tid n =
    Shell.retire t.sh ~tid (N.hdr n);
    if Batch.push_tagged t.batch ~tid n (Atomic.get t.global_epoch) then
      scan t ~tid

  (* Quarantine cleaner: a departing thread must go quiescent (a stale
     announcement would stall the global epoch — §2's blocked-reclamation
     failure made permanent) and its epoch-stamped retired list goes to
     the orphan pool, where survivors fold it into their next scan. *)
  let orphan t ~tid =
    Atomic.set t.announce.(tid) quiescent;
    Batch.orphan t.batch ~tid

  let orphaned t = Batch.orphaned t.batch

  (* Neutralize hook: force the victim quiescent — the single stalled
     announcement that blocks the global epoch (§2's failure mode) is
     exactly what neutralization exists to break.  The epoch-stamped
     retired list is owner-private plain state and stays put. *)
  let neutralize_clear t ~tid =
    Atomic.set t.announce.(tid) quiescent;
    Batch.refresh t.batch

  let create ?max_hps ?sink alloc =
    let sh = Shell.create ?max_hps ?sink alloc in
    let t =
      {
        sh;
        global_epoch = Atomic.make 2;
        announce =
          Array.init Registry.max_threads (fun _ -> Atomic.make quiescent);
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
    for _ = 1 to 3 do
      for tid = 0 to Registry.registered () - 1 do
        scan t ~tid
      done
    done
end
