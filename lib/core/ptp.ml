(** Pass-the-pointer (paper §3.1, Algorithm 2) — the paper's manual
    scheme and the first with a *linear* O(Ht) bound on unreclaimed
    objects.

    Protection is hazard-pointer-like.  Retiring is where PTP differs
    from HP/PTB: there is no thread-local retired list at all.  The
    retiring thread scans the published hazard pointers; on a match it
    *passes the pointer* — atomically swaps the object into the
    [handovers] slot paired with that hazard slot, making the protecting
    thread responsible for it — and continues the scan with whatever the
    swap evicted.  Pointers only ever move forward through the scan
    order, so at most one object can sit in each of the [t*H] handover
    slots plus one in the hand of each scanning thread: at most
    [t*(H+1)] unreclaimed objects, ever.

    Clearing a hazard slot drains its handover (Algorithm 2 lines 16–19,
    "optional" in the paper but required for a leak-free shutdown).

    Ablation knobs (global, read at call time; see bench/ablation):
    {!publish_with_exchange} switches the hazard publication between
    [Atomic.set] and [Atomic.exchange] — the paper traces its AMD/Intel
    performance gap to exactly this instruction choice (§5) — and
    {!clear_handover} disables the drain-on-clear. *)

open Atomicx

let publish_with_exchange = ref false
let clear_handover = ref true

module Make (N : Reclaim.Scheme_intf.NODE) :
  Reclaim.Scheme_intf.S with type node = N.t = struct
  type node = N.t

  type t = {
    alloc : Memdom.Alloc.t;
    sink : Obs.Sink.t;
    hps : int;
    (* hazards, [tid][idx]: the protected node's uid, one word per slot
       (-1 = empty), as in Reclaim.Hp *)
    hp : int Atomic.t array array;
    handovers : node option Atomic.t array array; (* [tid][idx] *)
    counters : Reclaim.Scheme_intf.Counters.t;
    wd : Obs.Watchdog.t; (* guard-stall stamp table *)
    bg : Reclaim.Channel.t option Atomic.t; (* background drain route *)
    (* PTP has no retired lists, so background mode buffers retires
       here (owner-private, bounded by the bg batch knob) and ships each
       batch as one channel job — one send per batch instead of one
       handover walk per retire. *)
    bg_buf : node list ref array;
    bg_count : int ref array;
    (* batch size comes from the knob record so the controller can
       retune it live; read per retire (one atomic load, no derivation) *)
    mutable tuning : Reclaim.Tuning.t;
    (* strong reference keeping the weakly-registered quarantine
       cleaner alive exactly as long as this scheme *)
    mutable lifecycle : int -> unit;
    (* likewise for the neutralize hook (atomic-state-only clear) *)
    mutable neutralizer : int -> unit;
    (* strong reference keeping the weakly-registered metrics probes
       alive exactly as long as this scheme *)
    mutable metrics : (string * (unit -> int)) list;
  }

  let name = "ptp"
  let max_hps t = t.hps

  let begin_op t ~tid =
    Reclaim.Neutralize.ack ~tid;
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid

  let uid n = (N.hdr n).Memdom.Hdr.uid

  let publish t ~tid ~idx u =
    if !publish_with_exchange then ignore (Atomic.exchange t.hp.(tid).(idx) u)
    else Atomic.set t.hp.(tid).(idx) u

  let protect_raw t ~tid ~idx n =
    publish t ~tid ~idx (match n with Some n -> uid n | None -> -1)

  let copy_protection t ~tid ~src ~dst =
    Reclaim.Neutralize.check ~tid;
    publish t ~tid ~idx:dst (Atomic.get t.hp.(tid).(src))

  (* The protect loop of Reclaim.Hp: publish the target's uid (skipped
     when the slot already holds it — the earlier store is still in
     force for every scanner, so the publish and, under the exchange
     flavour, its full fence go), then validate the triple (view, node,
     uid) against a re-read.  Functor-level so the loop allocates no
     closure. *)
  let rec gpv_loop t ~tid ~idx slot link v =
    if not (Link.v_has_target v) then begin
      publish t ~tid ~idx (-1);
      let v' = Link.view link in
      if Link.view_eq v' v then v else gpv_loop t ~tid ~idx slot link v'
    end
    else begin
      let n = Link.v_target_exn link v in
      let u = uid n in
      if Atomic.get slot = u then begin
        Reclaim.Scheme_intf.Counters.elided t.counters ~tid;
        Obs.Sink.on_elide t.sink ~tid;
        let v' = Link.view link in
        if Link.view_eq v' v then v else gpv_loop t ~tid ~idx slot link v'
      end
      else begin
        publish t ~tid ~idx u;
        let v' = Link.view link in
        if Link.view_eq v' v && Link.v_target_exn link v == n && uid n = u
        then v
        else gpv_loop t ~tid ~idx slot link v'
      end
    end

  let get_protected_v t ~tid ~idx link =
    Reclaim.Neutralize.check ~tid;
    gpv_loop t ~tid ~idx t.hp.(tid).(idx) link (Link.view link)

  let free_node t ~tid n =
    Reclaim.Scheme_intf.Counters.freed t.counters ~tid;
    Memdom.Alloc.free t.alloc (N.hdr n)

  (* Algorithm 2, handoverOrDelete: push [n] forward through the hazard
     scan until it is either handed to a protecting thread or proven
     unprotected and deleted. *)
  (* The scan covers the registered rows only — a thread that never
     registered cannot have published a protection — and skips rows
     whose registry slot has been recycled back to Free (see
     [Registry.in_use]): a dead row's hazards are all cleared, so the
     scan cost tracks the live slot population, not the monotone
     high-water mark. *)
  let handover_or_delete t ~tid n ~start =
    let began = Obs.Sink.scan_begin t.sink in
    let visited = ref 0 in
    let cur = ref (Some n) in
    (try
       for it = start to Registry.registered () - 1 do
         if Registry.in_use it then begin
           let idx = ref 0 in
           while !idx < t.hps do
             match !cur with
             | None -> raise_notrace Exit
             | Some p -> (
                 incr visited;
                 if Atomic.get t.hp.(it).(!idx) = uid p then begin
                   let prev =
                     Atomic.exchange t.handovers.(it).(!idx) (Some p)
                   in
                   Obs.Sink.on_handover t.sink ~tid ~uid:(uid p);
                   cur := prev;
                   match prev with
                   | None -> raise_notrace Exit
                   | Some q ->
                       (* Check it is not the new pointer (line 31): if the
                          slot protects the evictee, stay on this slot. *)
                       if Atomic.get t.hp.(it).(!idx) <> uid q then incr idx
                 end
                 else incr idx)
           done
         end
       done
     with Exit -> ());
    Reclaim.Scheme_intf.Counters.scanned t.counters ~tid ~slots:!visited;
    Obs.Sink.scan_end t.sink ~tid ~slots:!visited ~began;
    match !cur with Some p -> free_node t ~tid p | None -> ()

  let set_background t ch = Atomic.set t.bg ch

  let retire t ~tid n =
    Reclaim.Neutralize.check ~tid;
    let h = N.hdr n in
    Memdom.Hdr.mark_retired h;
    h.Memdom.Hdr.retired_ns <-
      Obs.Sink.on_retire t.sink ~tid ~uid:h.Memdom.Hdr.uid;
    Reclaim.Scheme_intf.Counters.retired t.counters ~tid;
    match Atomic.get t.bg with
    | None -> handover_or_delete t ~tid n ~start:0
    | Some ch ->
        t.bg_buf.(tid) := n :: !(t.bg_buf.(tid));
        incr t.bg_count.(tid);
        if !(t.bg_count.(tid)) >= Reclaim.Tuning.bg_batch t.tuning then begin
          let batch = !(t.bg_buf.(tid)) and count = !(t.bg_count.(tid)) in
          t.bg_buf.(tid) := [];
          t.bg_count.(tid) := 0;
          let job ~tid:rtid =
            List.iter
              (fun p -> handover_or_delete t ~tid:rtid p ~start:0)
              batch
          in
          if not (Reclaim.Channel.send ch ~tid ~count job) then
            (* refused (closed/full): inline fallback, single-owner safe
               — the batch left the buffer before the send *)
            List.iter (fun p -> handover_or_delete t ~tid p ~start:0) batch
        end

  let clear t ~tid ~idx =
    Atomic.set t.hp.(tid).(idx) (-1);
    if !clear_handover then
      match Atomic.get t.handovers.(tid).(idx) with
      | None -> ()
      | Some _ -> (
          match Atomic.exchange t.handovers.(tid).(idx) None with
          | Some p -> handover_or_delete t ~tid p ~start:tid
          | None -> ())

  let end_op t ~tid =
    for idx = 0 to t.hps - 1 do
      clear t ~tid ~idx
    done;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* Quarantine cleaner.  PTP has no retired lists, so thread death
     leaves exactly two things behind: published hazards (which would
     trap objects in other threads' scans forever) and parked
     handovers (which have no owner left to drain them on [clear]).
     Lower the hazards *first* — once [hp.(tid)] is all-empty, no
     concurrent handover scan can park anything new on this row — then
     re-run each evicted object through the normal handover path on
     the operating thread (the departing thread itself on the exit
     path, the reclaiming survivor under [force_release]). *)
  let orphan t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.hp.(tid).(idx) (-1)
    done;
    let self = Registry.tid () in
    for idx = 0 to t.hps - 1 do
      match Atomic.exchange t.handovers.(tid).(idx) None with
      | Some p -> handover_or_delete t ~tid:self p ~start:0
      | None -> ()
    done;
    (* background buffer: single-owner (departing thread or a reclaimer
       over a provably dead one), so the plain swap is safe here *)
    match !(t.bg_buf.(tid)) with
    | [] -> ()
    | batch ->
        t.bg_buf.(tid) := [];
        t.bg_count.(tid) := 0;
        List.iter (fun p -> handover_or_delete t ~tid:self p ~start:0) batch

  (* Neutralize hook: lower the victim's hazards and re-run its parked
     handovers through the scan — both atomic planes; the owner-private
     background buffer stays put (bounded by the bg batch knob, it
     cannot break the O(Ht) bound). *)
  let neutralize_clear t ~tid =
    for idx = 0 to t.hps - 1 do
      Atomic.set t.hp.(tid).(idx) (-1)
    done;
    let self = Registry.tid () in
    for idx = 0 to t.hps - 1 do
      match Atomic.exchange t.handovers.(tid).(idx) None with
      | Some p -> handover_or_delete t ~tid:self p ~start:0
      | None -> ()
    done

  (* Handover drains re-park or free immediately; nothing pools. *)
  let orphaned _ = 0

  let create ?(max_hps = 8) ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let t =
      {
        alloc;
        sink;
        hps = max_hps;
        hp =
          Array.init Registry.max_threads (fun _ ->
              Padded.atomic_array max_hps (-1));
        handovers =
          Array.init Registry.max_threads (fun _ ->
              Padded.atomic_array max_hps None);
        counters = Reclaim.Scheme_intf.Counters.create ();
        wd = Obs.Watchdog.create ();
        bg = Atomic.make None;
        bg_buf = Array.init Registry.max_threads (fun _ -> ref []);
        bg_count = Array.init Registry.max_threads (fun _ -> ref 0);
        tuning = Reclaim.Tuning.create ();
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
      Reclaim.Scheme_intf.register_metrics ~scheme:name
        ~stats:(fun () -> Reclaim.Scheme_intf.Counters.stats t.counters)
        ~unreclaimed:(fun () ->
          Reclaim.Scheme_intf.Counters.unreclaimed t.counters)
        ~wd:t.wd ();
    t

  let unreclaimed t = Reclaim.Scheme_intf.Counters.unreclaimed t.counters
  let tuning t = t.tuning
  let set_tuning t tn = t.tuning <- tn
  let stats t = Reclaim.Scheme_intf.Counters.stats t.counters
  let pp_stats fmt t = Reclaim.Scheme_intf.pp_stats_record fmt (stats t)

  (* Drain every handover slot; anything still protected simply parks
     again, anything unprotected is freed.  Unlike the other schemes PTP
     has no retired lists, so this is all a drain can mean. *)
  let flush t =
    let self = Registry.tid () in
    for tid = 0 to Registry.registered () - 1 do
      (match !(t.bg_buf.(tid)) with
      | [] -> ()
      | batch ->
          t.bg_buf.(tid) := [];
          t.bg_count.(tid) := 0;
          List.iter (fun p -> handover_or_delete t ~tid:self p ~start:0) batch);
      for idx = 0 to t.hps - 1 do
        match Atomic.exchange t.handovers.(tid).(idx) None with
        | Some p -> handover_or_delete t ~tid:self p ~start:0
        | None -> ()
      done
    done
end
