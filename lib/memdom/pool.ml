(* Type-stable header pool: per-registry-slot LIFO free-lists with a
   lock-free transfer stack for remote frees and orphan hand-off on
   domain death.  See the mli for the model. *)

open Atomicx

(* [local] is owner-only (the slot's current tid): plain mutable list,
   no atomics on the hit path.  [transfer] is the remote-free Treiber
   stack: any thread CAS-pushes, only the owner pops. *)
type slot = {
  mutable local : Hdr.t list;
  transfer : Hdr.t list Atomic.t;
}

type t = {
  slots : slot array;
  orphans : Hdr.t Orphan.t;
  sink : Obs.Sink.t;
  hits : Shard.t;
  misses : Shard.t;
  remote : Shard.t;
  refills : Shard.t;
  _cleaner : int -> unit;
      (* strong reference: the registry holds quarantine cleaners
         weakly, so the registration lives exactly as long as the
         pool *)
}

let drain_batch = 64

(* Slots are plain records, so after promotion two owners' slots may
   share a cache line: a spacer allocated between them would die and be
   packed away (see [Padded]). *)
let mk_slots () =
  Array.init Registry.max_threads (fun _ ->
      { local = []; transfer = Atomic.make [] })

(* The allocating owner, recovered from the uid encoding
   [local_ticket * max_threads + tid] that [Alloc] stamps. *)
let owner_of h = h.Hdr.uid mod Registry.max_threads

(* CAS-prepend with truncated exponential backoff under contention: the
   backoff state is only allocated after the first failure, keeping the
   uncontended remote free allocation-free on this path. *)
let push_transfer stack h =
  let cur = Atomic.get stack in
  if not (Atomic.compare_and_set stack cur (h :: cur)) then begin
    let b = Backoff.create () in
    let rec retry () =
      Backoff.once b;
      let cur = Atomic.get stack in
      if not (Atomic.compare_and_set stack cur (h :: cur)) then retry ()
    in
    retry ()
  end

(* Pop up to [drain_batch] headers in one CAS: take the current head
   list, split after K cells, and swing the head to the remainder.
   Only the owner drains, so the CAS fails only against concurrent
   pushers (then retry); physical equality makes the CAS ABA-free —
   cons cells are never reused. *)
let take_batch stack =
  let rec go b =
    match Atomic.get stack with
    | [] -> ([], 0)
    | cur ->
        let rec split n acc = function
          | rest when n = 0 -> (acc, n, rest)
          | [] -> (acc, n, [])
          | h :: tl -> split (n - 1) (h :: acc) tl
        in
        let taken, left, rest = split drain_batch [] cur in
        if Atomic.compare_and_set stack cur rest then
          (taken, drain_batch - left)
        else begin
          (* lost to a pusher burst: back off before rebuilding the
             split, which is O(drain_batch) wasted work per retry *)
          let b =
            match b with Some b -> b | None -> Backoff.create ()
          in
          Backoff.once b;
          go (Some b)
        end
  in
  go None

let release t ~tid h =
  let o = owner_of h in
  if o = tid then begin
    let s = t.slots.(tid) in
    s.local <- h :: s.local
  end
  else begin
    Shard.incr t.remote ~tid;
    push_transfer t.slots.(o).transfer h
  end

let miss =
  Hdr.make ~uid:(-1) ~label:(Hdr.intern "pool.miss") ~strict:false
    ~birth_era:0

let rec acquire t ~tid =
  let s = t.slots.(tid) in
  match s.local with
  | h :: rest ->
      s.local <- rest;
      Shard.incr t.hits ~tid;
      h
  | [] -> acquire_slow t s ~tid

(* The dry list's amortized slow path: drain remote frees, then
   orphans, then pop again. *)
and acquire_slow t s ~tid =
  let refill batch n =
    if n > 0 then begin
      s.local <- List.rev_append batch s.local;
      Shard.incr t.refills ~tid;
      Obs.Sink.on_refill t.sink ~tid ~count:n
    end
  in
  let batch, n = take_batch s.transfer in
  refill batch n;
  if n = 0 then begin
    let adopted = Orphan.adopt t.orphans t.sink ~tid in
    refill adopted (List.length adopted)
  end;
  match s.local with
  | [] ->
      Shard.incr t.misses ~tid;
      miss
  | _ :: _ -> acquire t ~tid

let create sink =
  let slots = mk_slots () in
  let orphans = Orphan.create () in
  (* Quarantine cleaner: the dead tid's free-list and transfer stack
     are one batch for the orphan pool.  The slot is Quarantined while
     this runs (owner gone, not yet re-issuable), so [local] has no
     concurrent writer; a remote free racing the transfer-stack
     exchange can land a header after it — recovered by the slot's
     next owner's first miss, never lost. *)
  let cleaner dead =
    let s = slots.(dead) in
    let local = s.local in
    s.local <- [];
    let remote = Atomic.exchange s.transfer [] in
    Orphan.publish orphans sink ~tid:dead (List.rev_append local remote)
  in
  Registry.on_quarantine cleaner;
  {
    slots;
    orphans;
    sink;
    hits = Shard.create ();
    misses = Shard.create ();
    remote = Shard.create ();
    refills = Shard.create ();
    _cleaner = cleaner;
  }

let hits t = Shard.get t.hits
let misses t = Shard.get t.misses
let remote_frees t = Shard.get t.remote
let refills t = Shard.get t.refills
let orphaned t = Orphan.pending t.orphans
