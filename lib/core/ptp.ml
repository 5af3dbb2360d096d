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
module Handover = Reclaim.Handover

let publish_with_exchange = ref false
let clear_handover = ref true

module Make (N : Reclaim.Scheme_intf.NODE) :
  Reclaim.Scheme_intf.S with type node = N.t = struct
  type node = N.t

  type t = {
    sh : Reclaim.Shell.t;
    (* hazards, [tid][idx]: the protected node's uid, one word per slot
       (-1 = empty), as in Reclaim.Hp *)
    hp : int Atomic.t array array;
    (* the handover slot paired with each hazard *)
    plane : node Handover.t;
  }

  let name = "ptp"
  let max_hps t = t.sh.hps
  let begin_op t ~tid = Reclaim.Shell.begin_op t.sh ~tid

  let uid n = (N.hdr n).Memdom.Hdr.uid

  let publish t ~tid ~idx u =
    if !publish_with_exchange then ignore (Atomic.exchange t.hp.(tid).(idx) u)
    else Atomic.set t.hp.(tid).(idx) u

  let protect_raw t ~tid ~idx n = publish t ~tid ~idx (uid n)

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
        Reclaim.Scheme_intf.Counters.elided t.sh.counters ~tid;
        Obs.Sink.on_elide t.sh.sink ~tid;
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
    let began = Obs.Sink.scan_begin t.sh.sink in
    let visited = ref 0 in
    let cur = ref n in
    (try
       for it = start to Registry.registered () - 1 do
         if Registry.in_use it then begin
           let idx = ref 0 in
           while !idx < t.sh.hps do
             incr visited;
             let u = uid !cur in
             if Atomic.get t.hp.(it).(!idx) = u then begin
               cur := Handover.hand t.plane ~tid ~row:it ~idx:!idx ~uid:u !cur;
               if Handover.is_empty !cur then raise_notrace Exit;
               (* Check it is not the new pointer (line 31): if the slot
                  protects the evictee, stay on this slot. *)
               if Atomic.get t.hp.(it).(!idx) <> uid !cur then incr idx
             end
             else incr idx
           done
         end
       done
     with Exit -> ());
    Reclaim.Scheme_intf.Counters.scanned t.sh.counters ~tid ~slots:!visited;
    Obs.Sink.scan_end t.sh.sink ~tid ~slots:!visited ~began;
    if not (Handover.is_empty !cur) then
      Reclaim.Shell.free t.sh ~tid (N.hdr !cur)

  (* A retire and an adopted slot walk every row. *)
  let walk_all t ~tid n = handover_or_delete t ~tid n ~start:0

  let retire t ~tid n =
    Reclaim.Shell.retire t.sh ~tid (N.hdr n);
    walk_all t ~tid n

  let clear t ~tid ~idx =
    Atomic.set t.hp.(tid).(idx) (-1);
    if !clear_handover then begin
      let p = Handover.take t.plane ~row:tid ~idx in
      if not (Handover.is_empty p) then handover_or_delete t ~tid p ~start:tid
    end

  let end_op t ~tid =
    for idx = 0 to t.sh.hps - 1 do
      clear t ~tid ~idx
    done;
    Reclaim.Shell.end_op t.sh ~tid

  let lower t ~tid =
    for idx = 0 to t.sh.hps - 1 do
      Atomic.set t.hp.(tid).(idx) (-1)
    done

  (* Quarantine cleaner.  PTP has no retired lists, so thread death
     leaves two things behind: published hazards (which would trap
     objects in other threads' scans forever) and parked handovers
     (which have no owner left to drain them on [clear]).  Lower the
     hazards *first* — once [hp.(tid)] is all-empty, no concurrent
     handover scan can park anything new on this row — then re-run
     each evicted object through the normal handover path on the
     operating thread (the departing thread itself on the exit path,
     the reclaiming survivor under [force_release]). *)
  let orphan t ~tid =
    lower t ~tid;
    Handover.adopt_row t.plane t ~row:tid ~tid:(Registry.tid ()) ~run:walk_all

  (* Neutralize hook: the same two steps, both on atomic planes, so
     they are safe while the victim is alive and about to wake. *)
  let neutralize_clear = orphan

  (* Handover drains re-park or free immediately; nothing pools. *)
  let orphaned _ = 0

  let create ?max_hps ?sink alloc =
    let sh = Reclaim.Shell.create ?max_hps ?sink alloc in
    let t =
      {
        sh;
        hp = Padded.atomic_matrix Registry.max_threads sh.hps (-1);
        plane = Reclaim.Shell.handover sh;
      }
    in
    Reclaim.Shell.register sh ~name
      ~orphan:(fun tid -> orphan t ~tid)
      ~neutralize:(fun tid -> neutralize_clear t ~tid);
    t

  let unreclaimed t = Reclaim.Shell.unreclaimed t.sh
  let stats t = Reclaim.Shell.stats t.sh
  let pp_stats fmt t = Reclaim.Shell.pp_stats fmt t.sh

  (* Drain every handover slot; anything still protected simply parks
     again, anything unprotected is freed.  Unlike the other schemes
     PTP has no retired lists, so this is all a drain can mean. *)
  let flush t =
    Handover.flush t.plane t ~tid:(Registry.tid ()) ~run:walk_all
end
