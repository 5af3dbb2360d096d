(** OrcGC over a hazard-pointer backend — the paper's §4 remark made
    concrete: "Most of the existing pointer-based reclamation schemes
    [14, 19, 24, 25] can be used by OrcGC to protect the local
    references of type orc_ptr."

    This variant keeps the whole automatic layer of {!Orc} — the [_orc]
    word, [incrementOrc]/[decrementOrc], [clearBitRetired], guards and
    pointer handles — but replaces the pass-the-pointer retirement with
    classic HP-style *thread-local retired lists* scanned against the
    published hazards.  Two consequences, both intentional and measured
    by the ablation benchmark:

    - the unreclaimed-object bound degrades from PTP's linear O(Ht) to
      HP's quadratic O(Ht²) (each thread parks up to a scan threshold);
    - the recursive-list machinery of Algorithm 5 becomes unnecessary —
      a cascading destructor merely *pushes* to the retired list, which
      is already iterative.

    Everything else (Lemma 1's seq validation before delete, BRETIRED
    ownership, un-retiring on resurrection) is unchanged, demonstrating
    that OrcGC's automatic layer is genuinely backend-agnostic. *)

open Atomicx

let seq_unit = Orc.seq_unit
let bretired = Orc.bretired
let orc_zero = Orc.orc_zero
let ocnt = Orc.ocnt
let retired_zero = Orc.retired_zero
let max_haz = Orc.max_haz

module Make (N : Orc.NODE) = struct
  type node = N.t

  type tl_info = {
    (* published hazardous pointers as node uids (-1 = empty), as in
       {!Orc} *)
    hp_uid : int Atomic.t array;
    used_haz : int array;
    free_idx : Bitmask.t;
    mutable retired : node list;
    mutable retired_count : int;
  }

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    (* the handle table the structure's link words index *)
    arena : node Link.arena;
    tl : tl_info array;
    watermark : int Atomic.t;
    hps : int;
    threshold : int Atomic.t; (* cached scaled R, refreshed on crossing *)
    mutable tuning : Reclaim.Tuning.t;
    pending : Shard.t;
    n_elided : Shard.t; (* hazard publishes skipped in [load] *)
    orphans : node Reclaim.Orphan.t;
    wd : Obs.Watchdog.t; (* guard-stall stamp table *)
    (* background drain: when set, a threshold crossing ships the
       swapped-out retired list to the reclaimer instead of scanning
       inline; None (the default) scans inline *)
    bg : Reclaim.Channel.t option Atomic.t;
    (* strong reference keeping the weakly-registered quarantine
       cleaner alive exactly as long as this scheme *)
    mutable lifecycle : int -> unit;
    (* same keep-alive contract for the neutralize hook *)
    mutable neutralizer : int -> unit;
    (* strong reference keeping the weakly-registered metrics probes
       alive exactly as long as this scheme *)
    mutable metrics : (string * (unit -> int)) list;
  }

  (* [gen] snapshots the registry slot generation at guard entry: a
     mismatch at guard exit means a neutralization expired this guard's
     protections mid-flight (see [Reclaim.Neutralize]), and the exit
     path must not act on them. *)
  type guard = { t : t; tid : int; gen : int; mutable ptrs : ptr list }

  (* An orc_ptr holds the link view it read (no box per load) and the
     node that view names, decoded once while protecting it ([no_node]
     without a target), plus its hazard index. *)
  and ptr = { mutable v : node Link.view; mutable n : node; mutable idx : int }

  let name = "orc-hp"
  let alloc_ctx t = t.alloc
  let orc_word n = (N.hdr n).Memdom.Hdr.orc
  let uid n = (N.hdr n).Memdom.Hdr.uid

  (* Placeholder carried where a view has no target; only ever written
     or compared under a [v_has_target] guard, never dereferenced. *)
  let no_node : node = Obj.magic 0

  let v_ptr t n = Link.v_ptr_in t.arena n
  let arena t = t.arena

  let unreclaimed t = Shard.get t.pending
  let elided t = Shard.get t.n_elided

  (* whitebox snapshot of the caller's row, as [Orc.hazard_row] *)
  let hazard_row g =
    let tl = g.t.tl.(g.tid) in
    Array.init (Atomic.get g.t.watermark) (fun idx ->
        (Atomic.get tl.hp_uid.(idx), tl.used_haz.(idx)))

  (* R = 2·H·t (scaled by the knob record) from the live Active-slot
     population, cached and refreshed on crossing / quarantine /
     neutralization, matching the manual HP baseline (see
     [Reclaim.Hp.threshold_crossed]) *)
  let refresh_threshold t =
    Atomic.set t.threshold (Reclaim.Tuning.threshold t.tuning ~hps:t.hps)

  let threshold_crossed t ~count =
    count >= Atomic.get t.threshold
    && begin
         refresh_threshold t;
         count >= Atomic.get t.threshold
       end

  let note_retired t ~tid n =
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Shard.incr t.pending ~tid

  let note_unretired t ~tid n =
    let h = N.hdr n in
    Memdom.Hdr.unretire h;
    h.Memdom.Hdr.retired_ns <- 0;
    Shard.add t.pending ~tid (-1)

  let protected_by_any t ~visited p =
    let wm = Atomic.get t.watermark in
    let pu = uid p in
    let found = ref false in
    (try
       (* rows whose registry slot is Free cannot hold a protection —
          skip them so scan cost tracks live slots, not the monotone
          high-water mark (see [Registry.in_use]) *)
       for it = 0 to Registry.registered () - 1 do
         if Registry.in_use it then begin
           let tl = t.tl.(it) in
           for idx = 0 to wm - 1 do
             incr visited;
             if Atomic.get tl.hp_uid.(idx) = pu then begin
               found := true;
               raise_notrace Exit
             end
           done
         end
       done
     with Exit -> ());
    !found

  (* clearBitRetired, identical to the PTP-backed version. *)
  let clear_bit_retired t ~tid p =
    let tl = t.tl.(tid) in
    Atomic.set tl.hp_uid.(0) (uid p);
    (* the header goes back to Live while we still own BRETIRED: once
       the bit is released another thread may claim it and mark the
       header Retired *)
    note_unretired t ~tid p;
    let lorc = Atomic.fetch_and_add (orc_word p) (-bretired) - bretired in
    if
      ocnt lorc = orc_zero
      && Atomic.compare_and_set (orc_word p) lorc (lorc + bretired)
    then begin
      note_retired t ~tid p;
      Atomic.set tl.hp_uid.(0) (-1);
      lorc + bretired
    end
    else begin
      Atomic.set tl.hp_uid.(0) (-1);
      0
    end

  (* Retiring = parking on the thread-local list; reclamation happens in
     [scan].  Cascades need no recursion guard: a destructor's [dec]
     just pushes more entries. *)
  let rec retire t ~tid p =
    let tl = t.tl.(tid) in
    tl.retired <- p :: tl.retired;
    tl.retired_count <- tl.retired_count + 1;
    if threshold_crossed t ~count:tl.retired_count then
      match Atomic.get t.bg with
      | None -> scan t ~tid
      | Some ch -> drain_background t ~tid ch

  (* Background split point: ship the swapped-out retired list to the
     reclaimer as a job that splices it into the {e running} thread's
     list and scans — the batch left this thread's list before the
     send, so exactly one owner ever touches it.  A refused send
     (channel closed or full — reclaimer dead or behind) restores the
     batch and scans inline: backpressure degrades to the [None]
     path. *)
  and drain_background t ~tid ch =
    let tl = t.tl.(tid) in
    let batch = tl.retired and n = tl.retired_count in
    tl.retired <- [];
    tl.retired_count <- 0;
    let job ~tid:rtid =
      let rl = t.tl.(rtid) in
      rl.retired <- List.rev_append batch rl.retired;
      rl.retired_count <- rl.retired_count + n;
      scan t ~tid:rtid
    in
    if not (Reclaim.Channel.send ch ~tid ~count:n job) then begin
      tl.retired <- List.rev_append batch tl.retired;
      tl.retired_count <- tl.retired_count + n;
      scan t ~tid
    end

  and scan t ~tid =
    let began = Obs.Sink.scan_begin t.sink in
    let visited = ref 0 in
    let tl = t.tl.(tid) in
    (* fold dead threads' published lists into this scan's batch *)
    let batch =
      List.rev_append
        (Reclaim.Orphan.adopt t.orphans t.sink ~tid)
        tl.retired
    in
    tl.retired <- [];
    tl.retired_count <- 0;
    List.iter
      (fun p ->
        let keep () =
          tl.retired <- p :: tl.retired;
          tl.retired_count <- tl.retired_count + 1
        in
        let lorc = Atomic.get (orc_word p) in
        if ocnt lorc <> retired_zero then begin
          (* resurrected: release ownership; re-park only if re-claimed *)
          if clear_bit_retired t ~tid p <> 0 then keep ()
        end
        else if protected_by_any t ~visited p then keep ()
        else
          (* Lemma 1: the seq must not have moved across the hazard scan *)
          let lorc2 = Atomic.get (orc_word p) in
          if lorc2 <> lorc then keep () else delete t ~tid p)
      batch;
    Obs.Sink.scan_end t.sink ~tid ~slots:!visited ~began

  and delete t ~tid p =
    N.iter_links p (fun l ->
        let old = Link.exchange_v l Link.v_null in
        (* the dropped hard link keeps the child alive until [dec] *)
        if Link.v_has_target old then dec t ~tid (Link.v_target_exn l old));
    Memdom.Alloc.free t.alloc (N.hdr p);
    Shard.add t.pending ~tid (-1)

  and inc t ~tid p =
    let lorc = Atomic.fetch_and_add (orc_word p) (seq_unit + 1) + seq_unit + 1 in
    if ocnt lorc = orc_zero then
      if Atomic.compare_and_set (orc_word p) lorc (lorc + bretired) then begin
        note_retired t ~tid p;
        retire t ~tid p
      end

  and dec t ~tid p =
    let tl = t.tl.(tid) in
    Atomic.set tl.hp_uid.(0) (uid p);
    let lorc = Atomic.fetch_and_add (orc_word p) (seq_unit - 1) + seq_unit - 1 in
    if
      ocnt lorc = orc_zero
      && Atomic.compare_and_set (orc_word p) lorc (lorc + bretired)
    then begin
      note_retired t ~tid p;
      Atomic.set tl.hp_uid.(0) (-1);
      retire t ~tid p
    end
    else Atomic.set tl.hp_uid.(0) (-1)

  let maybe_retire t ~tid p =
    let lorc = Atomic.get (orc_word p) in
    if ocnt lorc = orc_zero then
      if Atomic.compare_and_set (orc_word p) lorc (lorc + bretired) then begin
        note_retired t ~tid p;
        retire t ~tid p
      end

  (* Quarantine cleaner: lower the departing tid's hazards (a leftover
     hazard would pin its target in every survivor's scan forever),
     reset the owner-local index bookkeeping for the next owner of this
     tid, and publish the retired list to the orphan pool — survivors
     fold it into their next [scan], which re-runs the full Lemma-1 /
     resurrection checks on every adopted node.  (Publishing rather
     than re-retiring matters on the exit path: re-retiring would just
     re-park onto the very list being vacated.) *)
  let thread_exit t ~tid =
    let tl = t.tl.(tid) in
    let wm = Atomic.get t.watermark in
    for idx = 0 to wm - 1 do
      Atomic.set tl.hp_uid.(idx) (-1)
    done;
    Array.fill tl.used_haz 0 (Array.length tl.used_haz) 0;
    Bitmask.reset tl.free_idx;
    ignore (Bitmask.acquire tl.free_idx ~from:0);
    match tl.retired with
    | [] -> ()
    | batch ->
        tl.retired <- [];
        tl.retired_count <- 0;
        Reclaim.Orphan.publish t.orphans t.sink ~tid batch;
        refresh_threshold t

  (* Neutralize hook (registered with [Registry.on_neutralize] by
     [create]): expire a stalled tid's protections by lowering its
     hazards — the row's only {e atomic} state.  Owner-private
     plain state (used_haz, free_idx, the retired list) is left alone:
     the victim may be alive and about to wake, and its retired list
     is bounded by the scan threshold.  The victim detects the
     generation bump at its next scheme entry point and restarts (see
     [Reclaim.Neutralize]). *)
  let neutralize_clear t ~tid =
    let tl = t.tl.(tid) in
    let wm = Atomic.get t.watermark in
    for idx = 0 to wm - 1 do
      Atomic.set tl.hp_uid.(idx) (-1)
    done;
    (* the Active population just changed shape: re-derive R so the
       cached value does not linger at a stale width *)
    refresh_threshold t

  let set_background t ch = Atomic.set t.bg ch
  let tuning t = t.tuning
  let set_tuning t tn =
    t.tuning <- tn;
    refresh_threshold t

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let mk_tl _ =
      let free_idx = Bitmask.create max_haz in
      ignore (Bitmask.acquire free_idx ~from:0) (* scratch slot 0 *);
      {
        hp_uid = Padded.atomic_array max_haz (-1);
        used_haz = Array.make max_haz 0;
        free_idx;
        retired = [];
        retired_count = 0;
      }
    in
    let t =
      {
        alloc;
        sink;
        arena = Memdom.Handle.arena ~hdr:N.hdr ();
        tl = Array.init Registry.max_threads mk_tl;
        watermark = Atomic.make 1;
        hps = max_hps;
        threshold = Atomic.make (max 2 (2 * max_hps));
        tuning = Reclaim.Tuning.create ();
        pending = Shard.create ();
        n_elided = Shard.create ();
        orphans = Reclaim.Orphan.create ();
        wd = Obs.Watchdog.create ();
        bg = Atomic.make None;
        lifecycle = ignore;
        neutralizer = ignore;
        metrics = [];
      }
    in
    t.lifecycle <- (fun tid -> thread_exit t ~tid);
    Registry.on_quarantine t.lifecycle;
    t.neutralizer <- (fun tid -> neutralize_clear t ~tid);
    Registry.on_neutralize t.neutralizer;
    let labels = [ ("scheme", name) ] in
    let counters =
      [ ("orcgc_elided_total", fun () -> Shard.get t.n_elided) ]
    and gauges =
      [
        ("orcgc_unreclaimed", fun () -> Shard.get t.pending);
        ("orcgc_stall_age_max", fun () -> Obs.Watchdog.stall_age_max t.wd);
      ]
    in
    List.iter
      (fun (n, f) ->
        Obs.Metrics.probe Obs.Metrics.default ~labels ~counter:true n f)
      counters;
    List.iter
      (fun (n, f) -> Obs.Metrics.probe Obs.Metrics.default ~labels n f)
      gauges;
    t.metrics <- counters @ gauges;
    t

  (* {2 Hazard-index management and pointer handles — identical to the
     PTP-backed implementation, minus the handover drains.} *)

  let get_new_idx t ~tid ~start =
    let tl = t.tl.(tid) in
    match Bitmask.acquire tl.free_idx ~from:(max 1 start) with
    | None -> raise Orc.Out_of_hazard_indexes
    | Some idx ->
        tl.used_haz.(idx) <- 1;
        let rec bump () =
          let cur = Atomic.get t.watermark in
          if cur <= idx then
            if Atomic.compare_and_set t.watermark cur (idx + 1) then ()
            else bump ()
        in
        bump ();
        idx

  let using_idx t ~tid idx =
    if idx <> 0 then t.tl.(tid).used_haz.(idx) <- t.tl.(tid).used_haz.(idx) + 1

  (* The zero-count check runs while slot [idx] still publishes the
     target: once the hazard comes down another thread's scan may free
     it and a pooled header be recycled with a zero count, which a late
     check would claim (see [Orc.clear]). *)
  let clear t ~tid p ~reuse =
    let tl = t.tl.(tid) in
    let idx = p.idx in
    if Link.v_has_target p.v then maybe_retire t ~tid p.n;
    if (not reuse) && idx <> 0 then begin
      tl.used_haz.(idx) <- tl.used_haz.(idx) - 1;
      if tl.used_haz.(idx) = 0 then begin
        Bitmask.release tl.free_idx idx;
        Atomic.set tl.hp_uid.(idx) (-1)
      end
    end

  module Ptr = struct
    type t = ptr

    let view p = p.v
    let is_marked p = Link.v_is_marked p.v
    let is_poison p = Link.v_is_poison p.v
    let is_null p = Link.v_is_null p.v
    let node p = if Link.v_has_target p.v then Some p.n else None

    let node_exn p =
      if Link.v_has_target p.v then p.n
      else invalid_arg "Orc_hp.Ptr.node_exn: null"

    let same_node a b =
      match Link.v_has_target a.v, Link.v_has_target b.v with
      | true, true -> a.n == b.n
      | false, false -> true
      | true, false | false, true -> false

    (* Replace the held view by another for the *same* target — used
       after a successful CAS to keep validating against the value
       actually installed in memory.  Protection is unchanged, so the
       targets must match. *)
    let retag_v p v' =
      if Link.v_same (Link.v_clean v') (Link.v_clean p.v) then p.v <- v'
      else invalid_arg "Orc_hp.Ptr.retag_v: different target"
  end

  let ptr g =
    let p =
      {
        v = Link.v_null;
        n = no_node;
        idx = get_new_idx g.t ~tid:g.tid ~start:1;
      }
    in
    g.ptrs <- p :: g.ptrs;
    p

  let ensure_exclusive g p =
    let tl = g.t.tl.(g.tid) in
    if p.idx = 0 || tl.used_haz.(p.idx) > 1 then begin
      if p.idx <> 0 then tl.used_haz.(p.idx) <- tl.used_haz.(p.idx) - 1;
      p.idx <- get_new_idx g.t ~tid:g.tid ~start:1
    end

  (* The protect loop lives at functor level with its free variables as
     arguments: an inner [let rec] would allocate its closure on every
     load, spoiling the allocation-free word path. *)
  let rec load_loop t ~tid slot link p v =
    if not (Link.v_has_target v) then begin
      Atomic.set slot (-1);
      let v' = Link.view link in
      if Link.view_eq v' v then begin
        p.v <- v;
        p.n <- no_node
      end
      else load_loop t ~tid slot link p v'
    end
    else begin
      let n = Link.v_target_exn link v in
      let u = uid n in
      if Atomic.get slot = u then begin
        (* slot already publishes [n] (retry, or a mark-only change):
           the earlier store still protects it for every scanner *)
        Shard.incr t.n_elided ~tid;
        Obs.Sink.on_elide t.sink ~tid;
        let v' = Link.view link in
        if Link.view_eq v' v then begin
          p.v <- v;
          p.n <- n
        end
        else load_loop t ~tid slot link p v'
      end
      else begin
        (* the validation re-derefs the view and re-reads the uid: an
           unchanged word does not guarantee a stable slot meaning, and
           a pooled node can be recycled under a new uid (see hp.ml) *)
        Atomic.set slot u;
        let v' = Link.view link in
        if Link.view_eq v' v && Link.v_target_exn link v == n && uid n = u
        then begin
          p.v <- v;
          p.n <- n
        end
        else load_loop t ~tid slot link p v'
      end
    end

  let load g link p =
    Reclaim.Neutralize.check ~tid:g.tid;
    ensure_exclusive g p;
    let t = g.t and tid = g.tid in
    (* check the outgoing target before its slot is overwritten *)
    if Link.v_has_target p.v then maybe_retire t ~tid p.n;
    load_loop t ~tid t.tl.(tid).hp_uid.(p.idx) link p (Link.view link)

  (* One traversal hop as a pure permutation of handle contents; see
     [Orc.advance]. *)
  let advance _ prev curr next =
    if prev == curr || curr == next || prev == next then
      invalid_arg "Orc_hp.advance: handles must be distinct";
    let v = prev.v and n = prev.n and idx = prev.idx in
    prev.v <- curr.v;
    prev.n <- curr.n;
    prev.idx <- curr.idx;
    curr.v <- next.v;
    curr.n <- next.n;
    curr.idx <- next.idx;
    next.v <- v;
    next.n <- n;
    next.idx <- idx

  let unprotect g p =
    let tl = g.t.tl.(g.tid) in
    p.v <- Link.v_null;
    p.n <- no_node;
    if p.idx <> 0 && tl.used_haz.(p.idx) = 1 then
      Atomic.set tl.hp_uid.(p.idx) (-1)

  (* End [p]'s protection before guard exit (see [Orc.drop]); a claimed
     target waits on the retired list for the next scan. *)
  let drop g p =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.v_has_target p.v then maybe_retire g.t ~tid:g.tid p.n;
    unprotect g p

  let assign g dst src =
    Reclaim.Neutralize.check ~tid:g.tid;
    if dst != src then begin
      let tl = g.t.tl.(g.tid) in
      let reuse = src.idx < dst.idx && tl.used_haz.(dst.idx) = 1 in
      clear g.t ~tid:g.tid dst ~reuse;
      if src.idx < dst.idx then begin
        if not reuse then dst.idx <- get_new_idx g.t ~tid:g.tid ~start:(src.idx + 1);
        (* re-publish src's protection at dst's slot; src's own slot
           protects the target across this window *)
        Atomic.set tl.hp_uid.(dst.idx)
          (if Link.v_has_target src.v then uid src.n else -1)
      end
      else begin
        using_idx g.t ~tid:g.tid src.idx;
        dst.idx <- src.idx
      end;
      dst.v <- src.v;
      dst.n <- src.n
    end

  let run_mk g mk hdr =
    match mk hdr with
    | n -> n
    | exception e ->
        Memdom.Alloc.free g.t.alloc hdr;
        raise e

  let alloc_node g mk =
    let hdr = Memdom.Alloc.hdr g.t.alloc () in
    let n = run_mk g mk hdr in
    let p = ptr g in
    Atomic.set g.t.tl.(g.tid).hp_uid.(p.idx) (uid n);
    p.v <- v_ptr g.t n;
    p.n <- n;
    p

  let alloc_node_into g p mk =
    Reclaim.Neutralize.check ~tid:g.tid;
    let hdr = Memdom.Alloc.hdr g.t.alloc () in
    let n = run_mk g mk hdr in
    ensure_exclusive g p;
    if Link.v_has_target p.v then maybe_retire g.t ~tid:g.tid p.n;
    Atomic.set g.t.tl.(g.tid).hp_uid.(p.idx) (uid n);
    p.v <- v_ptr g.t n;
    p.n <- n;
    n

  (* All the mutators below start with a neutralization check: they act
     on the strength of the caller's protections, which a neutralized
     guard no longer holds (see [Reclaim.Neutralize]). *)
  let store_v g link v =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.v_has_target v then inc g.t ~tid:g.tid (Link.v_target_exn link v);
    let old = Link.exchange_v link v in
    if Link.v_has_target old then dec g.t ~tid:g.tid (Link.v_target_exn link old)

  let cas_v g link ~expected ~desired =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.cas_v link expected desired then begin
      let he = Link.v_has_target expected and hd = Link.v_has_target desired in
      let te = if he then Link.v_target_exn link expected else no_node in
      let td = if hd then Link.v_target_exn link desired else no_node in
      (if he && hd && te == td then ()
       else begin
         if hd then inc g.t ~tid:g.tid td;
         if he then dec g.t ~tid:g.tid te
       end);
      true
    end
    else false

  (* [cas_v] that ends [victim]'s protection between the count moves;
     see [Orc.unlink_v]. *)
  let unlink_v g link victim ~desired =
    Reclaim.Neutralize.check ~tid:g.tid;
    let expected = victim.v in
    if Link.cas_v link expected desired then begin
      let t = g.t and tid = g.tid in
      let he = Link.v_has_target expected and hd = Link.v_has_target desired in
      let te = if he then Link.v_target_exn link expected else no_node in
      let td = if hd then Link.v_target_exn link desired else no_node in
      let moves = not (he && hd && te == td) in
      if moves && hd then inc t ~tid td;
      unprotect g victim;
      if moves && he then dec t ~tid te;
      true
    end
    else false

  let new_link_v g v =
    if Link.v_has_target v then inc g.t ~tid:g.tid (Link.v_node g.t.arena v);
    Link.make_of_view g.t.arena v

  let with_guard t f =
    let tid = Registry.tid () in
    (* handshake: a pending neutralization from a previous guard is
       acknowledged silently here — nothing is protected yet — and again
       in [finally], which must not raise (it runs on exception paths,
       [Neutralized] included) *)
    Reclaim.Neutralize.ack ~tid;
    let g = { t; tid; gen = Registry.generation tid; ptrs = [] } in
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid;
    let finally () =
      Reclaim.Neutralize.ack ~tid;
      let tl = t.tl.(tid) in
      if Registry.generation tid = g.gen then
        List.iter (fun p -> clear t ~tid p ~reuse:false) g.ptrs
      else
        (* A neutralization expired this guard: the hazards are
           already down.  Skipping the per-handle [maybe_retire] is
           mandatory, not an optimization — the unprotected targets may
           already be freed and their headers re-issued, so a stale
           zero-count claim here would retire a {e live} object.  Any
           zero-count node this guard referenced is (or will be)
           claimed by the thread whose dec zeroed it.  Only the
           owner-local index bookkeeping is reset. *)
        List.iter
          (fun p ->
            if p.idx <> 0 then begin
              tl.used_haz.(p.idx) <- tl.used_haz.(p.idx) - 1;
              if tl.used_haz.(p.idx) = 0 then begin
                Bitmask.release tl.free_idx p.idx;
                Atomic.set tl.hp_uid.(p.idx) (-1)
              end
            end)
          g.ptrs;
      g.ptrs <- [];
      Atomic.set tl.hp_uid.(0) (-1);
      Obs.Sink.guard_end t.sink ~tid;
      Obs.Watchdog.leave t.wd ~tid
    in
    Fun.protect ~finally (fun () -> f g)

  (* Quiesced drain: clear all hazards, then scan every thread's retired
     list to a fixed point (a delete can push new cascade entries). *)
  let flush t =
    let tid = Registry.tid () in
    let wm = Atomic.get t.watermark in
    let nreg = Registry.registered () in
    for it = 0 to nreg - 1 do
      for idx = 0 to wm - 1 do
        Atomic.set t.tl.(it).hp_uid.(idx) (-1)
      done
    done;
    (* each round frees at least one level of any pending cascade chain,
       so loop until [pending] stops decreasing (guaranteed to
       terminate: it is non-negative and strictly decreases) *)
    let rec drain () =
      (* freeing a chain link retires its successor, so [pending] can
         stay flat while real progress happens — track the monotone
         freed counter instead *)
      let freed_before = Memdom.Alloc.freed t.alloc in
      for it = 0 to Registry.registered () - 1 do
        let tl = t.tl.(it) in
        let batch = tl.retired in
        tl.retired <- [];
        tl.retired_count <- 0;
        (* adopt every thread's parked objects into the caller's scan *)
        List.iter (fun p -> retire t ~tid p) batch
      done;
      scan t ~tid;
      if Memdom.Alloc.freed t.alloc > freed_before then drain ()
    in
    drain ()

  (* The calls a manual scheme makes at the same program points
     ([Ds.Intf.CORE]).  Here the hard-link counts do that work: an
     unlinked or never-published node is freed by its count and its
     handle, and dropping the roots cascades through the structure. *)
  let retire _ _ = ()
  let discard _ _ = ()

  let release_roots t roots =
    with_guard t (fun g ->
        List.iter
          (fun r ->
            if not (Link.v_is_null (Link.view r)) then store_v g r Link.v_null)
          roots)
end
