(** OrcGC (paper §4, Algorithms 3–7): automatic lock-free memory
    reclamation by per-object reference counting of *hard links* plus a
    pointer-based scheme protecting the *local references*.

    The automatic layer is written once ({!Make_gen}).  Each tracked
    object's header carries the [_orc] word (Algorithm 3): bits 0–21 a
    signed hard-link count biased at [orc_zero], bit 23 the BRETIRED
    ownership bit, bits 24+ a sequence bumped on every count change.
    Hard links are only mutated through {!store_v}, {!cas_v} and
    {!unlink_v}, which update the counts of the old and new targets;
    when a count returns to zero the mutator that observed it claims
    BRETIRED and hands the object to its {!BACKEND}.  The destructor
    drops the object's own outgoing links and can cascade.

    The backend decides what happens to a claimed zero-count object —
    the paper's §4 remark that "most of the existing pointer-based
    reclamation schemes can be used by OrcGC to protect the local
    references of type orc_ptr":
    - {!Ptp_backend} ("orc", Algorithms 5–6) passes the object to a
      protecting thread ([tryHandover]) through the {!Reclaim.Handover}
      plane that PTP and PTB share, un-retires it if it became
      reachable again ([clearBitRetired]) or deletes it, draining
      cascades iteratively through the recursive list to bound stack
      depth;
    - {!Hp_backend} ("orc-hp") parks it on a thread-local retired list
      of the {!Reclaim.Batch} engine, scanned against the published
      hazards, Lemma 1's sequence check deciding the delete.  The
      unreclaimed bound degrades from PTP's O(Ht) to HP's O(Ht²), and a
      cascading destructor merely pushes more entries.

    Local references live in {!Ptr.t} handles owned by a per-operation
    {!with_guard} scope — the OCaml rendering of the C++ RAII [orc_ptr]
    (Algorithm 7), including the hazard-index sharing ([usedHaz]) and the
    copy-direction rule of the assignment operator.

    Deviations from the paper's listing, documented in DESIGN.md §6.3:
    (1) releasing a hazard index runs the PTP backend's slot-release
    hook, which drains its handover slot (as PTP's clear does); (2)
    [decrementOrc] clears the scratch hazard slot 0 before invoking
    retire — safe because the BRETIRED bit, not the hazard, protects the
    object inside retire — so a retiring thread never hands an object to
    itself; (3) a handle's old target gets its zero-count check while the
    handle's slot still publishes it.  Two additions to the handle API:
    {!advance} steps a traversal window without moving any protection,
    and {!unlink_v} ends the victim's protection inside the unlinking
    CAS. *)

open Atomicx
module Handover = Reclaim.Handover

let seq_unit = 1 lsl 24
let bretired = 1 lsl 23
let orc_zero = 1 lsl 22
let ocnt x = x land (seq_unit - 1)
let retired_zero = bretired lor orc_zero

(* Capacity of each thread's hazard array; the watermark below keeps
   scans proportional to the indexes actually used. *)
let max_haz = 64

exception Out_of_hazard_indexes

module type NODE = sig
  type t

  val hdr : t -> Memdom.Hdr.t
  (** The header embedded in the node. *)

  val iter_links : t -> (t Link.t -> unit) -> unit
  (** Visit every [orc_atomic] field of the node; the destructor uses it
      to drop the node's outgoing hard links. *)
end

module type S = Orc_intf.S

(* {1 The state the automatic layer shares with its backend} *)

type row = {
  (* published hazardous pointers, one word each: the protected
     node's uid (-1 = empty; uid 0 is a real uid).  Uids never
     repeat, so uid equality is node identity for every node a scan
     can still find. *)
  hp_uid : int Atomic.t array;
  used_haz : int array; (* orc_ptr share counts; owner-thread only *)
  free_idx : Bitmask.t; (* taken hazard indexes; owner-thread only *)
}

(* One instance over nodes ['n] and backend state ['b]. *)
type ('n, 'b) core = {
  hdr : 'n -> Memdom.Hdr.t;
  alloc : Memdom.Alloc.t;
  sink : Obs.Sink.t;
  (* the handle table the structure's link words index *)
  arena : 'n Link.arena;
  tl : row array;
  (* per tid: its guards and orc_ptr handles (Algorithm 7), allocated
     by that tid on its first guard *)
  frames : (('n, 'b) core, 'n) Frame.t option array;
  watermark : int Atomic.t; (* 1 + highest hazard index ever used *)
  pending : Shard.t; (* BRETIRED-marked objects not yet freed *)
  (* observability counters (monotonic, per-thread sharded) *)
  n_retires : Shard.t; (* objects that entered the retired state *)
  n_handovers : Shard.t; (* tryHandover successes *)
  n_cascades : Shard.t; (* destructor-triggered recursive retires *)
  n_scans : Shard.t; (* hazard scans: tryHandover calls, HP scans *)
  n_scan_slots : Shard.t; (* hazard slots visited by those scans *)
  n_elided : Shard.t; (* hazard publishes skipped in [load] *)
  wd : Obs.Watchdog.t; (* guard-stall stamp table *)
  (* background drain: when set, the backend ships claimed nodes to the
     reclaimer; None (the default) reclaims inline *)
  bg : Reclaim.Channel.route;
  (* knob record, read live so the controller can retune it *)
  mutable tuning : Reclaim.Tuning.t;
  bk : 'b;
  (* the destructor, for the backend's reclamation paths: it is
     defined by the automatic layer, which itself calls the backend *)
  delete : tid:int -> 'n -> unit;
  (* strong reference keeping the weakly-registered quarantine
     cleaner alive exactly as long as this scheme *)
  mutable lifecycle : int -> unit;
  (* same keep-alive contract for the neutralize hook *)
  mutable neutralizer : int -> unit;
  (* strong reference keeping the weakly-registered metrics probes
     alive exactly as long as this scheme *)
  mutable metrics : (string * (unit -> int)) list;
}

let uid c n = (c.hdr n).Memdom.Hdr.uid
let orc_word c n = (c.hdr n).Memdom.Hdr.orc

let note_retired c ~tid n =
  let h = c.hdr n in
  Memdom.Hdr.mark_retired h;
  h.Memdom.Hdr.retired_ns <-
    Obs.Sink.on_retire c.sink ~tid ~uid:h.Memdom.Hdr.uid;
  Shard.incr c.pending ~tid;
  Shard.incr c.n_retires ~tid

let note_unretired c ~tid n =
  let h = c.hdr n in
  Memdom.Hdr.unretire h;
  (* unreachable-again objects are no longer "waiting to be freed": a
     later free must not report a latency measured from this aborted
     retire *)
  h.Memdom.Hdr.retired_ns <- 0;
  Shard.add c.pending ~tid (-1)

(* clearBitRetired (Algorithm 6 lines 147–158): give up BRETIRED
   ownership; if the count is back at zero immediately re-claim it.
   Returns the re-claimed [_orc] value, or 0 if ownership was lost. *)
let clear_bit_retired c ~tid p =
  let tl = c.tl.(tid) in
  Atomic.set tl.hp_uid.(0) (uid c p);
  (* the header goes back to Live while we still own BRETIRED: once
     the bit is released another thread may claim it and mark the
     header Retired *)
  note_unretired c ~tid p;
  let lorc = Atomic.fetch_and_add (orc_word c p) (-bretired) - bretired in
  if
    ocnt lorc = orc_zero
    && Atomic.compare_and_set (orc_word c p) lorc (lorc + bretired)
  then begin
    note_retired c ~tid p;
    Atomic.set tl.hp_uid.(0) (-1);
    lorc + bretired
  end
  else begin
    Atomic.set tl.hp_uid.(0) (-1);
    0
  end

(* {1 Backends: what happens to a claimed zero-count node}

   Operations reach the backend only on the zero-count path ([retire])
   and the slot-release path ([slot_released]): [advance] never does,
   [load] and [assign] only when they claim a zero-count node or
   release a slot. *)

module type BACKEND = sig
  type 'n t

  val name : string

  val create :
    max_hps:int option ->
    sink:Obs.Sink.t ->
    bg:Reclaim.Channel.route ->
    handovers:Shard.t ->
    scans:Shard.t ->
    scan_slots:Shard.t ->
    'n t
  (** [max_hps] is the [?max_hps] given to [create]; the sink, the
      background route and the handover and scan counters are the
      instance's own. *)

  val retire : ('n, 'n t) core -> tid:int -> 'n -> unit
  (** The caller owns the node's BRETIRED bit and passes it on. *)

  val slot_released : ('n, 'n t) core -> tid:int -> int -> unit
  (** Hazard index [idx] of [tid]'s row stopped publishing: its share
      count reached 0, or [drop] unpublished its only sharer. *)

  val thread_exit : ('n, 'n t) core -> tid:int -> self:int -> unit
  (** Rest of the quarantine cleaner, once [tid]'s hazards are down and
      its index bookkeeping reset; [self] is the operating thread. *)

  val neutralize_clear : ('n, 'n t) core -> tid:int -> self:int -> unit
  (** Rest of the neutralize hook, once [tid]'s hazards are down. *)

  val flush : ('n, 'n t) core -> tid:int -> unit
  (** Rest of the quiesced drain, once every hazard is down. *)

  val retune : ('n, 'n t) core -> unit
  (** The knob record was swapped. *)
end

module Ptp_backend = struct
  (* [tid]'s cascade state; owner-thread only *)
  type 'n cascade = { mutable retire_started : bool; recursive : 'n Queue.t }

  type 'n t = {
    (* one handover slot per hazard index, and the background buffer *)
    plane : 'n Handover.t;
    cascades : 'n cascade array;
  }

  let name = "orc"

  let create ~max_hps:_ ~sink ~bg:_ ~handovers ~scans:_ ~scan_slots:_ =
    {
      plane = Handover.create ~slots:max_haz ~sink ~handovers;
      cascades =
        Array.init Registry.max_threads (fun _ ->
            { retire_started = false; recursive = Queue.create () });
    }

  (* Scan every published hazardous pointer for [p]; on a match, hand
     [p] to the paired handover slot and return the evictee (or the
     plane's empty sentinel); [p] itself when no row publishes it.  The
     caller's own row goes first: a node whose count is zeroed by a
     thread that still protects it (a [store] or [cas_v] dropping a
     link to a node the caller holds) is handed over on the first row
     walked.  Row order is free because a protection never moves
     between rows, and each row is still walked upward, the direction
     in which [assign] moves protections within a row.  Rows whose
     registry slot is Free are skipped entirely — a recycled slot
     cannot hold a protection (see [Registry.in_use] for the
     memory-ordering argument), so after a churn burst the scan cost
     shrinks back to the live slot population instead of staying at
     the monotone high-water mark forever. *)
  let try_handover c ~tid p =
    let began = Obs.Sink.scan_begin c.sink in
    let wm = Atomic.get c.watermark and pu = uid c p in
    let row = ref tid and it = ref 0 and nreg = Registry.registered () in
    let idx = ref (Handover.find_in_row c.tl.(tid).hp_uid wm pu 0) in
    let visited = ref (if !idx < 0 then wm else !idx + 1) in
    while !idx < 0 && !it < nreg do
      if !it <> tid && Registry.in_use !it then begin
        row := !it;
        idx := Handover.find_in_row c.tl.(!it).hp_uid wm pu 0;
        visited := !visited + if !idx < 0 then wm else !idx + 1
      end;
      incr it
    done;
    let result =
      if !idx < 0 then p
      else Handover.hand c.bk.plane ~tid ~row:!row ~idx:!idx ~uid:pu p
    in
    Shard.incr c.n_scans ~tid;
    Shard.add c.n_scan_slots ~tid !visited;
    Obs.Sink.scan_end c.sink ~tid ~slots:!visited ~began;
    result

  (* The loop of retire (Algorithm 5 lines 96–117) over one node we own
     BRETIRED on: re-claim it if it was resurrected, hand it over and go
     on with the evictee, or — no row publishes it — delete it unless
     its [_orc] word moved across the scan, in which case revalidate
     from the top.  Tail-recursive, so it runs as a loop. *)
  let rec handover_or_delete c ~tid p =
    let lorc = Atomic.get (orc_word c p) in
    let lorc =
      if ocnt lorc = retired_zero then lorc else clear_bit_retired c ~tid p
    in
    if lorc <> 0 then begin
      let q = try_handover c ~tid p in
      if q != p then begin
        if not (Handover.is_empty q) then handover_or_delete c ~tid q
      end
      else if Atomic.get (orc_word c p) <> lorc then handover_or_delete c ~tid p
      else c.delete ~tid p
    end

  let rec drain_recursive c ~tid r =
    if not (Queue.is_empty r.recursive) then begin
      handover_or_delete c ~tid (Queue.take r.recursive);
      drain_recursive c ~tid r
    end

  (* retire (Algorithm 5 lines 92–118).  Precondition: the caller owns
     [p]'s BRETIRED bit.  Reentrant calls (from the destructor's [dec])
     queue onto the recursive list and are drained here, keeping the
     stack depth constant no matter how long the unreachable chain is. *)
  let retire_inline c ~tid p =
    let r = c.bk.cascades.(tid) in
    if r.retire_started then begin
      Shard.incr c.n_cascades ~tid;
      Obs.Sink.on_cascade c.sink ~tid ~uid:(uid c p);
      Queue.add p r.recursive
    end
    else begin
      r.retire_started <- true;
      handover_or_delete c ~tid p;
      drain_recursive c ~tid r;
      r.retire_started <- false
    end

  (* Background split point: every non-lifecycle retirement funnels
     through here.  With a channel set, the node joins the plane's
     background buffer.  BRETIRED ownership travels with a shipped
     batch, and [retire_inline] revalidates the count under the
     reclaimer's tid exactly as it would inline, so resurrection and
     handover behave identically. *)
  let retire c ~tid p =
    match Atomic.get c.bg with
    | None -> retire_inline c ~tid p
    | Some ch ->
        Handover.push c.bk.plane c ~tid c.tuning ch p ~run:retire_inline

  (* A released slot adopts whatever a scanner parked on its handover:
     the parked node carries BRETIRED, so we own it now. *)
  let slot_released c ~tid idx =
    let q = Handover.take c.bk.plane ~row:tid ~idx in
    if not (Handover.is_empty q) then retire c ~tid q

  (* Everything the dead row still owned is adopted: queued recursive
     retires (possible only under abrupt death mid-retire), parked
     handovers and the background buffer all carry BRETIRED.  They are
     retired inline — quarantine must make progress even with the
     reclaimer gone, and the next owner of this tid starts empty.  With
     [tid]'s hazards down no scan can park anything new there. *)
  let thread_exit c ~tid ~self =
    let r = c.bk.cascades.(tid) in
    r.retire_started <- false;
    while not (Queue.is_empty r.recursive) do
      retire_inline c ~tid:self (Queue.take r.recursive)
    done;
    Handover.adopt c.bk.plane c ~row:tid ~tid:self ~run:retire_inline

  (* Only the row's atomic state is touched: the victim may be alive and
     about to wake, and its buffer is bounded by [bg_batch]. *)
  let neutralize_clear c ~tid ~self =
    Handover.adopt_row c.bk.plane c ~row:tid ~tid:self ~run:retire_inline

  let flush c ~tid = Handover.flush c.bk.plane c ~tid ~run:retire_inline
  let retune _ = ()
end

module Hp_backend = struct
  type 'n t = {
    batch : 'n Reclaim.Batch.t;
    (* [tid]: guard exits since the row last retired or scanned;
       owner-thread only *)
    quiet : int array;
  }

  let name = "orc-hp"

  let create ~max_hps ~sink ~bg ~handovers:_ ~scans ~scan_slots =
    let hps = Option.value max_hps ~default:8 in
    {
      batch = Reclaim.Batch.create ~hps ~sink ~bg ~scans ~scan_slots;
      quiet = Array.make Registry.max_threads 0;
    }

  (* Does any row publish [p]?  Rows whose registry slot is Free cannot
     hold a protection and are skipped, so scan cost tracks live slots,
     not the monotone high-water mark (see [Registry.in_use]). *)
  let protected_by_any c ~visited p =
    let wm = Atomic.get c.watermark and pu = uid c p in
    let nreg = Registry.registered () in
    let found = ref false and it = ref 0 in
    while (not !found) && !it < nreg do
      if Registry.in_use !it then begin
        let i = Handover.find_in_row c.tl.(!it).hp_uid wm pu 0 in
        visited := !visited + if i < 0 then wm else i + 1;
        found := i >= 0
      end;
      incr it
    done;
    !found

  (* No snapshot: each verdict walks the rows itself, so the context a
     pass hands the verdicts is just the slot counter. *)
  let no_snapshot _ ~tid:_ ~visited = visited

  (* The per-node verdict.  A resurrected node gives up ownership and
     stays parked only if re-claimed; a published node stays; an
     unpublished one is deleted unless its seq moved across the hazard
     walk (Lemma 1).  A destructor's [dec] parks the successor it
     zeroed on this row, and the engine judges those too, so a chain
     whose links each hold the next (a queue's dequeued nodes) is freed
     in one scan rather than one link per threshold crossing. *)
  let verdict c ~tid visited p =
    let lorc = Atomic.get (orc_word c p) in
    if ocnt lorc <> retired_zero then clear_bit_retired c ~tid p <> 0
    else if protected_by_any c ~visited p then true
    else if Atomic.get (orc_word c p) <> lorc then true
    else begin
      c.delete ~tid p;
      false
    end

  let scan c ~tid =
    c.bk.quiet.(tid) <- 0;
    Reclaim.Batch.scan c.bk.batch c ~tid ~snapshot:no_snapshot ~keep:verdict

  let reclaim c ~tid = Reclaim.Batch.reclaim c.bk.batch c ~tid ~scan

  (* Retiring = parking on the thread-local list; reclamation happens in
     [scan].  Cascades need no recursion guard: a destructor's [dec]
     just pushes more entries. *)
  let retire c ~tid p =
    c.bk.quiet.(tid) <- 0;
    if Reclaim.Batch.push c.bk.batch ~tid c.tuning p then reclaim c ~tid

  (* Slot 0, the scratch slot, is released only at guard exit.  A
     parked list that has not grown for R guards is reclaimed anyway: a
     parked node can pin a chain that retires nothing until the node is
     freed — a queue's old sentinel holds every node dequeued after
     it — so waiting for R more retires could wait forever. *)
  let slot_released c ~tid idx =
    if idx = 0 then begin
      let q = c.bk.quiet.(tid) + 1 in
      c.bk.quiet.(tid) <- q;
      if
        Reclaim.Batch.pending c.bk.batch ~tid > 0
        && q >= Reclaim.Batch.threshold c.bk.batch
      then reclaim c ~tid
    end

  (* Publish the retired list to the orphan pool — survivors fold it
     into their next [scan], which re-runs the full Lemma-1 /
     resurrection checks on every adopted node.  (Publishing rather
     than re-retiring matters on the exit path: re-retiring would just
     re-park onto the very list being vacated.) *)
  let thread_exit c ~tid ~self:_ =
    Reclaim.Batch.orphan c.bk.batch ~tid c.tuning

  (* The victim's retired list is owner-private and bounded by the
     threshold, so it stays; the Active population just changed shape,
     so R is re-derived. *)
  let neutralize_clear c ~tid:_ ~self:_ =
    Reclaim.Batch.refresh c.bk.batch c.tuning

  (* Scan every thread's retired list from the caller's row to a fixed
     point: freeing a chain link retires its successor, so [pending]
     can stay flat while real progress happens — the monotone freed
     counter tracks it instead. *)
  let flush c ~tid =
    let rec drain () =
      let freed_before = Memdom.Alloc.freed c.alloc in
      for it = 0 to Registry.registered () - 1 do
        List.iter (retire c ~tid) (Reclaim.Batch.take c.bk.batch ~tid:it)
      done;
      scan c ~tid;
      if Memdom.Alloc.freed c.alloc > freed_before then drain ()
    in
    drain ()

  let retune c = Reclaim.Batch.refresh c.bk.batch c.tuning
end

(* {1 The automatic layer} *)

module Make_gen (B : BACKEND) (N : NODE) = struct
  type node = N.t
  type t = (node, node B.t) core
  type guard = (t, node) Frame.guard
  type ptr = node Frame.handle

  type stats = {
    retires : int;
    handovers : int;
    cascades : int;
    scans : int;
    scan_slots : int;
    elided : int;
  }

  let name = B.name
  let alloc_ctx t = t.alloc
  let orc_word n = (N.hdr n).Memdom.Hdr.orc
  let uid n = (N.hdr n).Memdom.Hdr.uid

  (* Placeholder carried where a view has no target; only ever written
     or compared under a [v_has_target] guard, never dereferenced. *)
  let no_node : node = Obj.magic 0

  (* Clean-pointer view of a node the caller protects (registers the
     node in the arena — legal here because every call site still owns
     the node privately or holds it protected). *)
  let v_ptr t n = Link.v_ptr_in t.arena n
  let arena t = t.arena
  let unreclaimed t = Shard.get t.pending
  let hazard_watermark t = Atomic.get t.watermark

  let hazard_row (g : guard) =
    let tl = g.core.tl.(g.tid) in
    Array.init (Atomic.get g.core.watermark) (fun idx ->
        (Atomic.get tl.hp_uid.(idx), tl.used_haz.(idx)))

  let stats t =
    {
      retires = Shard.get t.n_retires;
      handovers = Shard.get t.n_handovers;
      cascades = Shard.get t.n_cascades;
      scans = Shard.get t.n_scans;
      scan_slots = Shard.get t.n_scan_slots;
      elided = Shard.get t.n_elided;
    }

  (* {2 Counts (Algorithm 4) and the destructor} *)

  (* The destructor: drop the node's outgoing hard links (each drop may
     cascade through [dec]), then return the memory. *)
  let rec delete t ~tid p =
    N.iter_links p (fun l ->
        let old = Link.exchange_v l Link.v_null in
        (* the dropped hard link keeps the child alive until [dec] *)
        if Link.v_has_target old then dec t ~tid (Link.v_target_exn l old));
    Memdom.Alloc.free t.alloc (N.hdr p);
    Shard.add t.pending ~tid (-1)

  (* incrementOrc (Algorithm 4 lines 38–43).  Caller must hold a
     protected reference to [p]. *)
  and inc t ~tid p =
    let lorc = Atomic.fetch_and_add (orc_word p) (seq_unit + 1) + seq_unit + 1 in
    if ocnt lorc = orc_zero then
      if Atomic.compare_and_set (orc_word p) lorc (lorc + bretired) then begin
        note_retired t ~tid p;
        B.retire t ~tid p
      end

  (* decrementOrc (Algorithm 4 lines 45–51): protects [p] in the scratch
     hazard slot 0 for the duration of the count update. *)
  and dec t ~tid p =
    let tl = t.tl.(tid) in
    Atomic.set tl.hp_uid.(0) (uid p);
    let lorc = Atomic.fetch_and_add (orc_word p) (seq_unit - 1) + seq_unit - 1 in
    if
      ocnt lorc = orc_zero
      && Atomic.compare_and_set (orc_word p) lorc (lorc + bretired)
    then begin
      note_retired t ~tid p;
      (* Drop the scratch protection before retiring: BRETIRED ownership
         keeps [p] alive inside retire, and a live scratch hazard would
         make the scan find [p] protected by ourselves. *)
      Atomic.set tl.hp_uid.(0) (-1);
      B.retire t ~tid p
    end
    else Atomic.set tl.hp_uid.(0) (-1)

  (* An orc_ptr stopped referencing [p] (Algorithm 5 lines 84–89): if its
     count sits at zero, claim BRETIRED and retire it. *)
  let maybe_retire t ~tid p =
    let lorc = Atomic.get (orc_word p) in
    if ocnt lorc = orc_zero then
      if Atomic.compare_and_set (orc_word p) lorc (lorc + bretired) then begin
        note_retired t ~tid p;
        B.retire t ~tid p
      end

  let unpublish_row t ~tid =
    let tl = t.tl.(tid) in
    for idx = 0 to Atomic.get t.watermark - 1 do
      Atomic.set tl.hp_uid.(idx) (-1)
    done

  (* Quarantine cleaner (registered with [Registry.on_quarantine] by
     [create]): make a departing tid's row safe to re-issue.  Hazards
     come down first — a leftover hazard would pin its target in every
     scan, and once the row is empty no scan can hand it anything new —
     then the owner-local hazard-index bookkeeping is reset so the next
     owner starts from an empty mask (scratch slot 0 re-reserved), and
     finally the backend disposes of what the row still owned, under
     the operating thread: the departing thread itself on the exit
     path, the survivor under [force_release]. *)
  let thread_exit t ~tid =
    let tl = t.tl.(tid) in
    unpublish_row t ~tid;
    Array.fill tl.used_haz 0 (Array.length tl.used_haz) 0;
    Bitmask.reset tl.free_idx;
    ignore (Bitmask.acquire tl.free_idx ~from:0);
    (* the next owner allocates its own guard and handle storage *)
    t.frames.(tid) <- None;
    B.thread_exit t ~tid ~self:(Registry.tid ())

  (* Neutralize hook (registered with [Registry.on_neutralize] by
     [create]): expire a stalled tid's protections.  Only the row's
     {e atomic} state is touched — the hazards come down, then the
     backend reacts under the neutralizer's own tid.  Owner-private
     plain state (used_haz, free_idx) is left alone: the victim may be
     alive and about to wake.  The victim detects the generation bump
     at its next scheme entry point and restarts (see
     [Reclaim.Neutralize]). *)
  let neutralize_clear t ~tid =
    unpublish_row t ~tid;
    B.neutralize_clear t ~tid ~self:(Registry.tid ())

  let set_background t ch = Atomic.set t.bg ch
  let tuning t = t.tuning

  let set_tuning t tn =
    t.tuning <- tn;
    B.retune t

  let create ?max_hps ?sink alloc =
    let sink =
      match sink with Some s -> s | None -> Memdom.Alloc.sink alloc
    in
    let mk_row _ =
      let free_idx = Bitmask.create max_haz in
      (* slot 0 is the permanently-reserved scratch hazard *)
      ignore (Bitmask.acquire free_idx ~from:0);
      {
        hp_uid = Padded.atomic_array max_haz (-1);
        used_haz = Array.make max_haz 0;
        free_idx;
      }
    in
    let tl = Array.init Registry.max_threads mk_row in
    let bg = Atomic.make None in
    let n_handovers = Shard.create () in
    let n_scans = Shard.create () and n_scan_slots = Shard.create () in
    let bk =
      B.create ~max_hps ~sink ~bg ~handovers:n_handovers ~scans:n_scans
        ~scan_slots:n_scan_slots
    in
    let rec t =
      {
        hdr = N.hdr;
        alloc;
        sink;
        arena = Memdom.Handle.arena ~hdr:N.hdr ();
        tl;
        frames = Array.make Registry.max_threads None;
        watermark = Atomic.make 1;
        pending = Shard.create ();
        n_retires = Shard.create ();
        n_handovers;
        n_cascades = Shard.create ();
        n_scans;
        n_scan_slots;
        n_elided = Shard.create ();
        wd = Obs.Watchdog.create ();
        bg;
        tuning = Reclaim.Tuning.create ();
        bk;
        delete = (fun ~tid p -> delete t ~tid p);
        lifecycle = ignore;
        neutralizer = ignore;
        metrics = [];
      }
    in
    t.lifecycle <- (fun tid -> thread_exit t ~tid);
    Registry.on_quarantine t.lifecycle;
    t.neutralizer <- (fun tid -> neutralize_clear t ~tid);
    Registry.on_neutralize t.neutralizer;
    (* OrcGC's stats record is richer than [Scheme_intf.stats], so it
       names its own probes. *)
    let counters =
      [
        ("orcgc_retires_total", fun () -> Shard.get t.n_retires);
        ("orcgc_handovers_total", fun () -> Shard.get t.n_handovers);
        ("orcgc_cascades_total", fun () -> Shard.get t.n_cascades);
        ("orcgc_scans_total", fun () -> Shard.get t.n_scans);
        ("orcgc_scan_slots_total", fun () -> Shard.get t.n_scan_slots);
        ("orcgc_elided_total", fun () -> Shard.get t.n_elided);
      ]
    and gauges =
      [
        ("orcgc_unreclaimed", fun () -> Shard.get t.pending);
        ("orcgc_stall_age_max", fun () -> Obs.Watchdog.stall_age_max t.wd);
      ]
    in
    t.metrics <- Reclaim.Shell.probes ~name ~counters ~gauges;
    t

  (* {2 Hazard-index management (Algorithm 6 lines 119–132)} *)

  let rec bump_watermark wm idx =
    let cur = Atomic.get wm in
    if cur <= idx && not (Atomic.compare_and_set wm cur (idx + 1)) then
      bump_watermark wm idx

  let get_new_idx t ~tid ~start =
    let tl = t.tl.(tid) in
    let idx = Bitmask.acquire tl.free_idx ~from:(max 1 start) in
    if idx < 0 then raise Out_of_hazard_indexes;
    tl.used_haz.(idx) <- 1;
    bump_watermark t.watermark idx;
    idx

  let using_idx t ~tid idx =
    if idx <> 0 then t.tl.(tid).used_haz.(idx) <- t.tl.(tid).used_haz.(idx) + 1

  (* Release one share of hazard slot [idx]; when the slot becomes free,
     unpublish it and tell the backend. *)
  let release_idx t ~tid idx =
    let tl = t.tl.(tid) in
    tl.used_haz.(idx) <- tl.used_haz.(idx) - 1;
    if tl.used_haz.(idx) = 0 then begin
      Bitmask.release tl.free_idx idx;
      Atomic.set tl.hp_uid.(idx) (-1);
      B.slot_released t ~tid idx
    end

  (* clear (Algorithm 5 lines 80–90) extended with the slot-release
     hook: give the no-longer-referenced object its zero-count check,
     then release one share of hazard slot [idx].

     The check runs while slot [idx] still publishes the target.  Once
     the hazard comes down, another thread can claim and free the
     object (or the release hook frees it, when it was parked here),
     and a pooled header is then recycled with a zero count: a check
     made after that would claim a fresh, not-yet-linked node.  Claimed
     while published, the object is handed over to this very slot
     (PTP) or kept by the scan (HP) until the slot comes down. *)
  let clear t ~tid (p : ptr) ~reuse =
    if Link.v_has_target p.v then maybe_retire t ~tid (Link.v_node p.arena p.v);
    if (not reuse) && p.idx <> 0 then release_idx t ~tid p.idx

  (* {2 Guards and orc_ptr handles (Algorithm 7)} *)

  module Ptr = struct
    type t = ptr

    let view (p : t) = p.v
    let is_marked (p : t) = Link.v_is_marked p.v
    let is_poison (p : t) = Link.v_is_poison p.v
    let is_null (p : t) = Link.v_is_null p.v

    (* the target is protected, so its arena slot still names it *)
    let node (p : t) =
      if Link.v_has_target p.v then Some (Link.v_node p.arena p.v) else None

    let node_exn (p : t) =
      if Link.v_has_target p.v then Link.v_node p.arena p.v
      else invalid_arg "Orc.Ptr.node_exn: null"

    let same_node (a : t) (b : t) =
      match Link.v_has_target a.v, Link.v_has_target b.v with
      | true, true -> Link.v_node a.arena a.v == Link.v_node b.arena b.v
      | false, false -> true
      | true, false | false, true -> false

    (* Replace the held view by another for the *same* target — used
       after a successful CAS to keep validating against the value
       actually installed in memory.  Protection is unchanged, so the
       targets must match. *)
    let retag_v (p : t) v' =
      if Link.v_same (Link.v_clean v') (Link.v_clean p.v) then p.v <- v'
      else invalid_arg "Orc.Ptr.retag_v: different target"
  end

  (* A handle of the innermost open guard: the frame's next record,
     null, with a fresh hazard index. *)
  let ptr (g : guard) =
    let p = Frame.handle g in
    p.idx <- get_new_idx g.core ~tid:g.tid ~start:1;
    p

  (* Give [p] sole ownership of a hazard slot so it may be overwritten. *)
  let ensure_exclusive (g : guard) (p : ptr) =
    let tl = g.core.tl.(g.tid) in
    if p.idx = 0 || tl.used_haz.(p.idx) > 1 then begin
      if p.idx <> 0 then tl.used_haz.(p.idx) <- tl.used_haz.(p.idx) - 1;
      p.idx <- get_new_idx g.core ~tid:g.tid ~start:1
    end

  (* orc_atomic<T*>::load() (Algorithm 4 lines 76–79) fused with the
     orc_ptr move: protect [link]'s current state directly in [p]'s own
     hazard slot, with the publish-and-revalidate loop of Algorithm 2.
     The link must be reachable through a protected node or a root, and
     must not belong to the node [p] itself currently protects.

     The protect loop lives at functor level with its free variables as
     arguments: an inner [let rec] would allocate its closure on every
     load, spoiling the allocation-free word path. *)
  let rec load_loop t ~tid slot link (p : ptr) v =
    if not (Link.v_has_target v) then begin
      Atomic.set slot (-1);
      let v' = Link.view link in
      if Link.view_eq v' v then p.v <- v else load_loop t ~tid slot link p v'
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
        if Link.view_eq v' v then p.v <- v else load_loop t ~tid slot link p v'
      end
      else begin
        (* the validation re-derefs the view and re-reads the uid: an
           unchanged word does not guarantee a stable slot meaning, and
           a pooled node can be recycled under a new uid (see hp.ml) *)
        Atomic.set slot u;
        let v' = Link.view link in
        if Link.view_eq v' v && Link.v_target_exn link v == n && uid n = u
        then p.v <- v
        else load_loop t ~tid slot link p v'
      end
    end

  let load (g : guard) link (p : ptr) =
    Reclaim.Neutralize.check ~tid:g.tid;
    ensure_exclusive g p;
    let t = g.core and tid = g.tid in
    (* the outgoing target's zero-count check runs before its hazard
       slot is overwritten, for the reason given at [clear] *)
    if Link.v_has_target p.v then maybe_retire t ~tid (Link.v_node p.arena p.v);
    load_loop t ~tid t.tl.(tid).hp_uid.(p.idx) link p (Link.view link)

  (* One traversal hop: prev takes curr's (view, index) pair, curr
     takes next's, next takes prev's old pair.  Nothing is published and no
     share count moves — every slot keeps publishing what it did, only
     the handles naming the slots are permuted — so the direction rule
     of [assign] never comes into play.  prev's old target stays
     published in the slot [next] now names until the next [load] into
     [next] overwrites it (running that target's zero-count check). *)
  let advance _ (prev : ptr) (curr : ptr) (next : ptr) =
    if prev == curr || curr == next || prev == next then
      invalid_arg "Orc.advance: handles must be distinct";
    let v = prev.v and idx = prev.idx in
    prev.v <- curr.v;
    prev.idx <- curr.idx;
    curr.v <- next.v;
    curr.idx <- next.idx;
    next.v <- v;
    next.idx <- idx

  (* The slot half of [drop]: [p] becomes a null handle that keeps its
     index share; when it is the slot's only sharer, the slot is
     unpublished and released to the backend. *)
  let unprotect (g : guard) (p : ptr) =
    let t = g.core and tid = g.tid in
    let tl = t.tl.(tid) in
    p.v <- Link.v_null;
    if p.idx <> 0 && tl.used_haz.(p.idx) = 1 then begin
      Atomic.set tl.hp_uid.(p.idx) (-1);
      B.slot_released t ~tid p.idx
    end

  (* End [p]'s protection now rather than at guard exit: the zero-count
     check while still published (see [clear]), then [unprotect]. *)
  let drop (g : guard) (p : ptr) =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.v_has_target p.v then
      maybe_retire g.core ~tid:g.tid (Link.v_node p.arena p.v);
    unprotect g p

  (* orc_ptr assignment (Algorithm 7 lines 182–194): copies between
     hazard slots may only travel in the scan direction (upward), so a
     copy to a lower slot re-publishes at a fresh higher index, while a
     copy to a higher slot shares the source's index. *)
  let assign (g : guard) (dst : ptr) (src : ptr) =
    Reclaim.Neutralize.check ~tid:g.tid;
    if dst != src then begin
      let tl = g.core.tl.(g.tid) in
      let reuse = src.idx < dst.idx && tl.used_haz.(dst.idx) = 1 in
      clear g.core ~tid:g.tid dst ~reuse;
      if src.idx < dst.idx then begin
        if not reuse then dst.idx <- get_new_idx g.core ~tid:g.tid ~start:(src.idx + 1);
        (* re-publish src's protection at dst's slot; src's own slot
           protects the target across this window *)
        Atomic.set tl.hp_uid.(dst.idx)
          (if Link.v_has_target src.v then uid (Link.v_node src.arena src.v)
           else -1)
      end
      else begin
        using_idx g.core ~tid:g.tid src.idx;
        dst.idx <- src.idx
      end;
      dst.v <- src.v
    end

  (* make_orc<T> (Algorithm 3 lines 31–36): allocate, then protect the
     not-yet-shared node in a fresh slot. *)
  let run_mk (g : guard) mk hdr =
    match mk hdr with
    | n -> n
    | exception e ->
        (* constructor failed: the header must not leak *)
        Memdom.Alloc.free g.core.alloc hdr;
        raise e

  let alloc_node (g : guard) mk =
    let hdr = Memdom.Alloc.hdr g.core.alloc () in
    let n = run_mk g mk hdr in
    let p = ptr g in
    Atomic.set g.core.tl.(g.tid).hp_uid.(p.idx) (uid n);
    p.v <- v_ptr g.core n;
    p

  (* make_orc into an existing handle, for loops that allocate many nodes
     under one guard without exhausting hazard indexes. *)
  let alloc_node_into (g : guard) (p : ptr) mk =
    Reclaim.Neutralize.check ~tid:g.tid;
    let hdr = Memdom.Alloc.hdr g.core.alloc () in
    let n = run_mk g mk hdr in
    ensure_exclusive g p;
    (* the outgoing target's check precedes the overwrite (see [clear]) *)
    if Link.v_has_target p.v then
      maybe_retire g.core ~tid:g.tid (Link.v_node p.arena p.v);
    Atomic.set g.core.tl.(g.tid).hp_uid.(p.idx) (uid n);
    p.v <- v_ptr g.core n;
    n

  (* {2 orc_atomic mutators (Algorithm 4)} *)

  (* store (lines 63–67).  The target of [v], if any, must be protected
     by the caller (a live Ptr or a fresh node).

     All the mutators below start with a neutralization check: they act
     on the strength of the caller's protections, which a neutralized
     guard no longer holds (see [Reclaim.Neutralize]). *)
  let store_v (g : guard) link v =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.v_has_target v then inc g.core ~tid:g.tid (Link.v_target_exn link v);
    let old = Link.exchange_v link v in
    (* the exchanged-out hard link is ours now; it keeps the old target
       alive until this dec *)
    if Link.v_has_target old then dec g.core ~tid:g.tid (Link.v_target_exn link old)

  (* compare_exchange (lines 69–74): counts move only on success, and a
     pure mark/unmark transition on the same target leaves them alone. *)
  let cas_v (g : guard) link ~expected ~desired =
    Reclaim.Neutralize.check ~tid:g.tid;
    if Link.cas_v link expected desired then begin
      let he = Link.v_has_target expected and hd = Link.v_has_target desired in
      let te = if he then Link.v_target_exn link expected else no_node in
      let td = if hd then Link.v_target_exn link desired else no_node in
      (if he && hd && te == td then ()
       else begin
         if hd then inc g.core ~tid:g.tid td;
         if he then dec g.core ~tid:g.tid te
       end);
      true
    end
    else false

  (* [cas_v] expecting [victim]'s view, with [victim]'s protection
     ended between the two count moves.  Until the [dec], the hard link
     the CAS removed still holds the victim's count up (a count that
     reads zero meanwhile has an [inc] pending by a thread that, by the
     mutator precondition, protects the node), so nobody can free it
     across the [unprotect].  The [dec] that zeroes the count then finds
     no protection of ours, and the backend can free the node at once
     instead of holding it for our own slot until the handle is
     released. *)
  let unlink_v (g : guard) link (victim : ptr) ~desired =
    Reclaim.Neutralize.check ~tid:g.tid;
    let expected = victim.v in
    if Link.cas_v link expected desired then begin
      let t = g.core and tid = g.tid in
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

  (* Build a link during single-threaded construction of a node or root
     whose initial target is private or otherwise protected. *)
  let new_link_v (g : guard) v =
    if Link.v_has_target v then inc g.core ~tid:g.tid (Link.v_node g.core.arena v);
    Link.make_of_view g.core.arena v

  (* Guard exit, on the normal and the exceptional path alike: release
     the guard's handles newest-first, exactly where the C++ [orc_ptr]
     destructors would run.  A pending neutralization is acknowledged
     silently here: this path must not raise.  The guard's [gen] is the
     registry slot generation at entry: a mismatch means a
     neutralization expired its protections mid-flight (see
     [Reclaim.Neutralize]), and this path must not act on them. *)
  let exit_guard (g : guard) =
    let t = g.core and tid = g.tid and fr = g.frame in
    Reclaim.Neutralize.ack ~tid;
    if Registry.generation tid = g.gen then
      for i = fr.top - 1 downto g.base do
        clear t ~tid fr.handles.(i) ~reuse:false
      done
    else
      (* A neutralization expired this guard: the hazards are already
         down and the backend has reacted.  Skipping the per-handle
         [maybe_retire] is mandatory, not an optimization — the
         unprotected targets may already be freed and their headers
         re-issued, so a stale zero-count claim here would retire a
         {e live} object.  Any zero-count node this guard referenced is
         (or will be) claimed by the thread whose dec zeroed it, or was
         parked on this row and adopted.  Only the owner-local index
         bookkeeping is released, each freed slot still running the
         release hook for stragglers parked by scanners that read the
         hazards before they came down. *)
      for i = fr.top - 1 downto g.base do
        let p = fr.handles.(i) in
        if p.idx <> 0 then release_idx t ~tid p.idx
      done;
    Frame.close g;
    Atomic.set t.tl.(tid).hp_uid.(0) (-1);
    B.slot_released t ~tid 0;
    Obs.Sink.guard_end t.sink ~tid;
    Obs.Watchdog.leave t.wd ~tid

  (* The guard bracket.  [f] is applied to its arguments by
     [Frame.run], so a caller whose [f] is a closed function builds no
     closure per operation.  A pending neutralization from a previous
     guard is acknowledged silently on entry: nothing is protected
     yet. *)
  let with_guard2 t f a b =
    let tid = Registry.tid () in
    Reclaim.Neutralize.ack ~tid;
    let g =
      Frame.enter t.frames ~core:t ~arena:t.arena ~handles:8 ~tid
        ~gen:(Registry.generation tid)
    in
    Obs.Watchdog.enter t.wd ~tid;
    Obs.Sink.guard_begin t.sink ~tid;
    Frame.run g exit_guard f a b

  let apply g f () = f g
  let with_guard t f = with_guard2 t apply f ()

  (* Quiesced drain for tests and shutdown: unpublish every hazard, then
     let the backend reclaim everything it holds.  Objects still pending
     after this are genuinely reachable (or leaked, which the tests
     assert against). *)
  let flush t =
    for it = 0 to Registry.registered () - 1 do
      unpublish_row t ~tid:it
    done;
    B.flush t ~tid:(Registry.tid ())

  (* The calls a manual scheme makes at the same program points
     ([Ds.Intf.CORE]).  Here the hard-link counts do that work: an
     unlinked or never-published node is freed by its count and its
     handle, and dropping the roots cascades through the structure. *)
  let retire _ _ = ()
  let retire_region _ _ ~keep:_ = ()
  let discard _ _ = ()

  let release_roots t roots =
    with_guard t (fun g ->
        List.iter
          (fun r ->
            if not (Link.v_is_null (Link.view r)) then store_v g r Link.v_null)
          roots);
    flush t
end

module Make = Make_gen (Ptp_backend)

module Make_hp (N : NODE) = struct
  include Make_gen (Hp_backend) (N)

  let scan t ~tid = Hp_backend.scan t ~tid
end
