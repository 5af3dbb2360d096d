(** Mode-switching scheme wrapper: EBR speed with an HP escape hatch.

    The adaptive controller wants EBR's nearly-free protection while the
    workload is calm and HP's bounded memory when a reader stalls.  This
    wrapper embeds one instance of each and migrates between them at a
    safe boundary, so a structure pays for robustness only while it
    needs it.

    {2 The three-state machine}

    [Fast] (0) — reads are epoch-protected plain loads, retires go to
    the embedded EBR instance.  [Escalating] (1) — new operations
    publish hazards but retires still go to EBR; the state is a grace
    period, not a destination.  [Robust] (2) — reads publish hazards
    and retires go to the embedded HP instance.

    {2 Why each transition is safe}

    {b Every operation, in every mode, announces an epoch} — [begin_op]
    always enters the EBR instance before reading the mode.  EBR frees
    only nodes whose retire epoch every announcement has moved past, so
    EBR-side reclamation is safe regardless of how reads were routed:
    the epoch announcement covers the reader even when its protection
    plane is hazards.

    {b Escalation (0→1→2)} must not let an HP retire free a node that
    an epoch-only reader still holds.  [escalate] sets the mode to
    [Escalating] and records the then-current global epoch as the flip
    epoch.  An operation announces its epoch {e before} reading the
    mode, so (under OCaml's SC atomics) any operation that announced an
    epoch strictly above the flip epoch read the global epoch after it
    advanced past the flip — which happens after the mode store — and
    therefore saw [Escalating] and published hazards.  [try_complete]
    promotes to [Robust] exactly when the minimum announcement exceeds
    the flip epoch: from that point every active reader is
    hazard-publishing, so HP scans see every protection.  A stalled
    reader parks the grace period at its announced epoch; the
    neutralization machinery (the armed reclaimer forcing the victim's
    announcement quiescent, PR "stalled-guard neutralization") is what
    unblocks it — adaptive mode is the controller {e plus} a
    neutralizing reclaimer.

    {b Relaxation (2→0)} is immediate.  Every node on the HP instance's
    retired lists was unlinked while all active readers published
    hazards, and it was already unreachable from the structure when
    retired — an epoch-only reader admitted after the flip can never
    acquire a reference to it.  So hazard-honoring scans remain a sound
    way to drain the residue in any mode, and the owner thread drains
    its own leftover list to fixpoint from the retire path (gated to
    one scan attempt per [Tuning.bg_batch] retires so a long-pinned
    node cannot turn every retire into an O(Ht) scan). *)

open Atomicx

let fast = 0
let escalating = 1
let robust = 2

module Make (N : Scheme_intf.NODE) = struct
  module E = Ebr.Make (N)
  module H = Hp.Make (N)

  type node = N.t

  type t = {
    e : E.t;
    h : H.t;
    mode : int Atomic.t; (* fast | escalating | robust *)
    flip_epoch : int Atomic.t; (* global epoch recorded at [escalate] *)
    (* protection plane chosen at [begin_op]; owner-private plain state
       (each op routes its reads by what it saw at entry, not by the
       live mode, so a mid-op switch cannot strand a half-published
       protection) *)
    op_mode : int array;
    (* per-tid countdown between residue-drain attempts on the retire
       path; reloaded from [Tuning.bg_batch].  Plain unboxed ints: this
       is decremented on every retire and a boxed ref would put a
       pointer chase on the hot path *)
    gate : int array;
    escalations : int Atomic.t;
    relaxations : int Atomic.t;
    (* the background channel, held here rather than handed straight to
       the EBR instance: channel routing is itself mode-gated (see
       [set_background]) *)
    bg : Channel.route;
    mutable tuning : Tuning.t;
    (* strong reference keeping the weakly-registered metrics probes
       alive exactly as long as this scheme *)
    mutable metrics : (string * (unit -> int)) list;
  }

  let name = "switchable"
  let max_hps t = E.max_hps t.e
  let mode t = Atomic.get t.mode

  let begin_op t ~tid =
    (* announce first — the escalation grace period depends on the
       epoch announcement being visible before the mode read *)
    E.begin_op t.e ~tid;
    let m = Atomic.get t.mode in
    (* the hazard plane is entered only when this op will publish
       through it; an op that snapshots [fast] never touches H, which
       keeps the fast path within a few loads of bare EBR.  Any op the
       grace period counts (epoch above the flip) read the mode after
       the flip store, so it took this branch and did enter H. *)
    if m <> fast then H.begin_op t.h ~tid;
    t.op_mode.(tid) <- m

  let end_op t ~tid =
    if t.op_mode.(tid) <> fast then H.end_op t.h ~tid;
    E.end_op t.e ~tid

  let get_protected_v t ~tid ~idx link =
    if t.op_mode.(tid) = fast then E.get_protected_v t.e ~tid ~idx link
    else H.get_protected_v t.h ~tid ~idx link

  let protect_raw t ~tid ~idx n =
    if t.op_mode.(tid) = fast then E.protect_raw t.e ~tid ~idx n
    else H.protect_raw t.h ~tid ~idx n

  let copy_protection t ~tid ~src ~dst =
    if t.op_mode.(tid) = fast then E.copy_protection t.e ~tid ~src ~dst
    else H.copy_protection t.h ~tid ~src ~dst

  let clear t ~tid ~idx =
    if t.op_mode.(tid) = fast then E.clear t.e ~tid ~idx
    else H.clear t.h ~tid ~idx

  (* Owner-called residue drain: free whatever the {e other} policy
     still holds for this tid.  Sound in any mode (see the header), but
     gated so a pinned node cannot make every retire pay for a scan. *)
  let drain_residue t ~tid ~mode =
    let g = t.gate.(tid) - 1 in
    t.gate.(tid) <- g;
    if g <= 0 then begin
      t.gate.(tid) <- Tuning.bg_batch t.tuning;
      if mode = robust then begin
        if E.pending t.e ~tid > 0 then E.scan t.e ~tid
      end
      else if H.pending t.h ~tid > 0 then H.scan t.h ~tid
    end

  let retire t ~tid n =
    (* route by the live mode, not the op snapshot: in [Robust] every
       active reader is hazard-publishing (the grace period proved it),
       so HP may take over immediately; in [Fast]/[Escalating] the
       epoch announcement of every op keeps EBR retires safe *)
    let m = Atomic.get t.mode in
    if m = robust then H.retire t.h ~tid n else E.retire t.e ~tid n;
    drain_residue t ~tid ~mode:m

  let escalate t =
    Atomic.compare_and_set t.mode fast escalating
    && begin
         (* read the global epoch only after the mode store: any op
            announcing a strictly later epoch is then guaranteed to
            have seen [Escalating] *)
         Atomic.set t.flip_epoch (E.global_epoch t.e);
         (* under pressure the EBR side starts shipping batches to the
            background channel so the reclaimer (and its neutralization
            scan) takes over the drain work *)
         E.set_background t.e (Atomic.get t.bg);
         true
       end

  let try_complete t =
    Atomic.get t.mode = escalating
    && begin
         E.try_advance_epoch t.e;
         E.min_announced_now t.e > Atomic.get t.flip_epoch
         && Atomic.compare_and_set t.mode escalating robust
         && begin
              Atomic.incr t.escalations;
              true
            end
       end

  let relax t =
    if
      Atomic.compare_and_set t.mode robust fast
      || Atomic.compare_and_set t.mode escalating fast
    then begin
      Atomic.incr t.relaxations;
      (* calm again: retires drain inline on their owners — on a busy
         channel the remote-free round trip is pure overhead once
         nothing is stalled *)
      E.set_background t.e None;
      true
    end
    else false

  let escalations t = Atomic.get t.escalations
  let relaxations t = Atomic.get t.relaxations
  let stall_age_max t = max (E.stall_age_max t.e) (H.stall_age_max t.h)

  let tuning t = t.tuning

  let set_tuning t tn =
    t.tuning <- tn;
    E.set_tuning t.e tn;
    H.set_tuning t.h tn

  (* Channel routing is mode-gated.  The HP side only ever retires in
     [Robust], so it may keep the channel unconditionally; the EBR side
     gets it on [escalate] and loses it on [relax] — while the workload
     is calm, inline owner-side scans beat the remote-free round trip
     through the reclaimer domain. *)
  let set_background t ch =
    Atomic.set t.bg ch;
    H.set_background t.h ch;
    if Atomic.get t.mode <> fast then E.set_background t.e ch
    else E.set_background t.e None

  (* The embedded instances registered their own quarantine and
     neutralize hooks at [create]; this entry point only exists for
     callers holding the wrapper. *)
  let orphan t ~tid =
    E.orphan t.e ~tid;
    H.orphan t.h ~tid

  let orphaned t = E.orphaned t.e + H.orphaned t.h
  let unreclaimed t = E.unreclaimed t.e + H.unreclaimed t.h

  let stats t : Scheme_intf.stats =
    let a = E.stats t.e and b = H.stats t.h in
    {
      retires = a.retires + b.retires;
      frees = a.frees + b.frees;
      scans = a.scans + b.scans;
      scan_slots = a.scan_slots + b.scan_slots;
      snapshot_builds = a.snapshot_builds + b.snapshot_builds;
      snapshot_hits = a.snapshot_hits + b.snapshot_hits;
      elided = a.elided + b.elided;
    }

  let pp_stats fmt t = Scheme_intf.pp_stats_record fmt (stats t)

  let flush t =
    E.flush t.e;
    H.flush t.h

  let create ?(max_hps = 8) ?sink alloc =
    let e = E.create ~max_hps ?sink alloc in
    let h = H.create ~max_hps ?sink alloc in
    let tn = Tuning.create () in
    E.set_tuning e tn;
    H.set_tuning h tn;
    let t =
      {
        e;
        h;
        mode = Atomic.make fast;
        flip_epoch = Atomic.make 0;
        op_mode = Array.make Registry.max_threads fast;
        gate = Array.make Registry.max_threads Tuning.default_bg_batch;
        escalations = Atomic.make 0;
        relaxations = Atomic.make 0;
        bg = Atomic.make None;
        tuning = tn;
        metrics = [];
      }
    in
    let labels = [ ("scheme", name) ] in
    let counters =
      [
        ("orcgc_ctrl_escalations_total", fun () -> escalations t);
        ("orcgc_ctrl_relaxations_total", fun () -> relaxations t);
      ]
    and gauges =
      [
        ("orcgc_ctrl_mode", fun () -> mode t);
        ("orcgc_unreclaimed", fun () -> unreclaimed t);
      ]
    in
    List.iter
      (fun (nm, f) ->
        Obs.Metrics.probe Obs.Metrics.default ~labels ~counter:true nm f)
      counters;
    List.iter
      (fun (nm, f) -> Obs.Metrics.probe Obs.Metrics.default ~labels nm f)
      gauges;
    t.metrics <- counters @ gauges;
    t
end
