(* See the mli for the model. *)

open Atomicx

type 'a row = { mutable items : 'a list; mutable count : int }

type 'a t = {
  hps : int;
  rows : 'a row array; (* [tid]; owner-private *)
  (* cached R (Tuning.threshold) *)
  threshold : int Atomic.t;
  orphans : 'a Memdom.Orphan.t;
  sink : Obs.Sink.t;
  scans : Shard.t;
  scan_slots : Shard.t;
}

let create ~hps ~sink ~scans ~scan_slots =
  {
    hps;
    rows =
      Array.init Registry.max_threads (fun _ -> { items = []; count = 0 });
    threshold = Atomic.make (max 2 (2 * hps));
    orphans = Memdom.Orphan.create ();
    sink;
    scans;
    scan_slots;
  }

(* The paper's R = 2·H·t amortization ratio, tracking the live thread
   population instead of a baked-in 8-thread default.  [t] is the {e Active} slot
   count, not the monotone [Registry.registered] high-water: the
   high-water never decreases, so a long-lived process that once ran
   many threads would batch forever.  Counting Active slots is
   O(registered), so the count is cached and refreshed only when the
   cached value is crossed — amortized O(1) per retire — plus on
   quarantine and neutralization, so the threshold shrinks promptly
   after domain death instead of waiting for the next crossing. *)
let refresh b = Atomic.set b.threshold (Tuning.threshold ~hps:b.hps)

let threshold b = Atomic.get b.threshold

let add b ~tid x =
  let r = b.rows.(tid) in
  r.items <- x :: r.items;
  r.count <- r.count + 1

let push b ~tid x =
  add b ~tid x;
  let n = b.rows.(tid).count in
  n >= Atomic.get b.threshold
  && begin
       refresh b;
       n >= Atomic.get b.threshold
     end

let take b ~tid =
  let r = b.rows.(tid) in
  let items = r.items in
  r.items <- [];
  r.count <- 0;
  items

let pending b ~tid = b.rows.(tid).count

let splice b ~tid items n =
  let r = b.rows.(tid) in
  r.items <- List.rev_append items r.items;
  r.count <- r.count + n

let adopt b ~tid =
  match Memdom.Orphan.adopt b.orphans b.sink ~tid with
  | [] -> ()
  | adopted -> splice b ~tid adopted (List.length adopted)

let publish b ~tid items = Memdom.Orphan.publish b.orphans b.sink ~tid items

(* On the exit path this runs on the departing thread itself; on the
   force path the owner is provably dead, so the row is single-owner
   either way. *)
let orphan b ~tid =
  refresh b;
  publish b ~tid (take b ~tid)

let orphaned b = Memdom.Orphan.pending b.orphans

(* Judge [batch] against one snapshot, consing survivors onto [kept];
   returns the new survivor count.  Top-level recursions with every
   free variable passed, so a scan builds no closure. *)
let rec judge s ~tid ~keep ctx kept nkept = function
  | [] -> nkept
  | x :: rest ->
      if keep s ~tid ctx x then begin
        kept := x :: !kept;
        judge s ~tid ~keep ctx kept (nkept + 1) rest
      end
      else judge s ~tid ~keep ctx kept nkept rest

(* Detach the list, snapshot, judge; again while the verdicts pushed
   entries back (a pushed entry was retired after this pass's snapshot
   was read, so it needs a fresh one). *)
let rec passes b s ~tid ~snapshot ~keep visited kept nkept =
  let batch = take b ~tid in
  let ctx = snapshot s ~tid ~visited in
  let nkept = judge s ~tid ~keep ctx kept nkept batch in
  match b.rows.(tid).items with
  | [] -> nkept
  | _ -> passes b s ~tid ~snapshot ~keep visited kept nkept

let scan b s ~tid ~snapshot ~keep =
  adopt b ~tid;
  let began = Obs.Sink.scan_begin b.sink in
  let visited = ref 0 and kept = ref [] in
  let nkept = passes b s ~tid ~snapshot ~keep visited kept 0 in
  let r = b.rows.(tid) in
  r.items <- !kept;
  r.count <- nkept;
  Shard.incr b.scans ~tid;
  Shard.add b.scan_slots ~tid !visited;
  Obs.Sink.scan_end b.sink ~tid ~slots:!visited ~began
