(* See the mli for the model. *)

open Atomicx

(* A row is an owner-private array stack: entries [0, count) are
   pending, each with an int tag in the parallel [tags] (EBR's retire
   epoch; 0 for the other schemes).  Positions at [count] and above
   may still name entries that left the row (at most the row's
   high-water of them); only [0, count) is ever read.  [scanning] is
   set while a scan judges the row: entries pushed meanwhile are
   appended and judged by that scan, so a push never starts a nested
   one.  [visited] is the scan's slot counter, kept here so a scan
   allocates nothing. *)
type 'a row = {
  mutable items : 'a array;
  mutable tags : int array;
  mutable count : int;
  mutable scanning : bool;
  visited : int ref;
}

type 'a t = {
  hps : int;
  rows : 'a row array; (* [tid]; owner-private *)
  (* cached R (Tuning.threshold) *)
  threshold : int Atomic.t;
  orphans : ('a * int) Memdom.Orphan.t; (* entries with their tags *)
  sink : Obs.Sink.t;
  scans : Shard.t;
  scan_slots : Shard.t;
}

let initial_row = 16

let create ~hps ~sink ~scans ~scan_slots =
  {
    hps;
    rows =
      Array.init Registry.max_threads (fun _ ->
          {
            items = [||];
            tags = [||];
            count = 0;
            scanning = false;
            visited = ref 0;
          });
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

(* The array doubles when full (the entry itself fills the new
   positions), the only allocation of a retire, and a rare one: a row
   holds at most about R entries between scans. *)
let add_tagged b ~tid x tag =
  let r = b.rows.(tid) in
  let n = r.count in
  if n = Array.length r.items then begin
    let cap = max initial_row (2 * n) in
    let a = Array.make cap x and t = Array.make cap 0 in
    Array.blit r.items 0 a 0 n;
    Array.blit r.tags 0 t 0 n;
    r.items <- a;
    r.tags <- t
  end;
  Array.unsafe_set r.items n x;
  Array.unsafe_set r.tags n tag;
  r.count <- n + 1

let add b ~tid x = add_tagged b ~tid x 0

let push_tagged b ~tid x tag =
  add_tagged b ~tid x tag;
  let r = b.rows.(tid) in
  let n = r.count in
  (not r.scanning)
  && n >= Atomic.get b.threshold
  && begin
       refresh b;
       n >= Atomic.get b.threshold
     end

let push b ~tid x = push_tagged b ~tid x 0

(* [tid]'s entries with their tags, oldest first, detached *)
let take_tagged b ~tid =
  let r = b.rows.(tid) in
  let items = ref [] in
  for i = r.count - 1 downto 0 do
    items := (r.items.(i), r.tags.(i)) :: !items
  done;
  r.count <- 0;
  !items

let take b ~tid =
  let r = b.rows.(tid) in
  let items = ref [] in
  for i = r.count - 1 downto 0 do
    items := r.items.(i) :: !items
  done;
  r.count <- 0;
  !items

let pending b ~tid = b.rows.(tid).count

let rec add_all b ~tid = function
  | [] -> ()
  | (x, tag) :: rest ->
      add_tagged b ~tid x tag;
      add_all b ~tid rest

let adopt b ~tid =
  match Memdom.Orphan.adopt b.orphans b.sink ~tid with
  | [] -> ()
  | adopted -> add_all b ~tid adopted

let publish b ~tid items =
  Memdom.Orphan.publish b.orphans b.sink ~tid
    (List.map (fun x -> (x, 0)) items)

(* On the exit path this runs on the departing thread itself; on the
   force path the owner is provably dead, so the row is single-owner
   either way. *)
let orphan b ~tid =
  refresh b;
  Memdom.Orphan.publish b.orphans b.sink ~tid (take_tagged b ~tid)

let orphaned b = Memdom.Orphan.pending b.orphans

(* Judge entries [i, stop) against one snapshot, compacting the
   survivors down to [k]; returns the new survivor count.  A verdict
   may push onto the row (and grow its array), so [r.items] is re-read
   at each step; pushes land at or above [stop], beyond the entries
   still to judge.  Top-level recursions with every free variable
   passed, so a scan builds no closure. *)
let rec judge s ~tid ~keep ctx r i stop k =
  if i >= stop then k
  else
    let x = Array.unsafe_get r.items i in
    let tag = Array.unsafe_get r.tags i in
    if keep s ~tid ctx x tag then begin
      Array.unsafe_set r.items k x;
      Array.unsafe_set r.tags k tag;
      judge s ~tid ~keep ctx r (i + 1) stop (k + 1)
    end
    else judge s ~tid ~keep ctx r (i + 1) stop k

(* Snapshot, judge the entries from [start]; again while the verdicts
   pushed entries (a pushed entry was retired after this pass's
   snapshot was read, so it needs a fresh one). *)
let rec passes s ~tid ~snapshot ~keep r start k =
  let stop = r.count in
  let ctx = snapshot s ~tid ~visited:r.visited in
  let k = judge s ~tid ~keep ctx r start stop k in
  if r.count > stop then passes s ~tid ~snapshot ~keep r stop k else k

let scan b s ~tid ~snapshot ~keep =
  adopt b ~tid;
  let began = Obs.Sink.scan_begin b.sink in
  let r = b.rows.(tid) in
  r.visited := 0;
  r.scanning <- true;
  (match passes s ~tid ~snapshot ~keep r 0 0 with
  | k ->
      r.count <- k;
      r.scanning <- false
  | exception e ->
      (* a verdict raised (a reported scheme bug): drop the row rather
         than leave entries judged twice *)
      r.count <- 0;
      r.scanning <- false;
      raise e);
  Shard.incr b.scans ~tid;
  Shard.add b.scan_slots ~tid !(r.visited);
  Obs.Sink.scan_end b.sink ~tid ~slots:!(r.visited) ~began
