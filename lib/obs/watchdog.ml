open Atomicx

(* Global logical clock, advanced by the background domain.  Zero means the
   metrics plane never started: guard hot paths bail after one shared
   atomic read, so the watchdog is compiled-in but free when unused
   (same shape as the null {!Sink}). *)
let clock = Atomic.make 0

(* The last tick before a [pause]: the next [advance] resumes after
   it, so ticks stay increasing across a pause. *)
let paused_at = Atomic.make 0

let tick () = Atomic.get clock

let rec advance () =
  let t = Atomic.get clock in
  let n = (if t = 0 then Atomic.get paused_at else t) + 1 in
  if Atomic.compare_and_set clock t n then n else advance ()

(* Per-tid rows live in one plain int array, one cache line per tid:
   stamp at [+0] (tick at outermost enter, 0 = idle), generation at
   [+1], nesting depth at [+2].  The stores are plain, not atomic —
   OCaml's [Atomic.set] is a sequentially-consistent (fenced) store, and
   three of those per guard roughly doubled the cost of a read-only op.
   Racy cross-domain reads are fine for a watchdog: a genuinely stalled
   guard keeps its stamp in place for many ticks, and {!check} only
   flags rows older than [max_age] ticks, so diagnostic-grade eventual
   visibility (helped along by the background domain's atomic clock bump
   each pass) is all the detection needs. *)
let stride = 8

type t = {
  rows : int array;
  mutable cleaner : int -> unit;  (* keep-alive for the quarantine hook *)
}

(* Every live watchdog, held weakly so a collected scheme's table drops
   out of {!check} — the same idiom as [Registry.on_quarantine] (the
   scheme's record keeps its [t] reachable). *)
let tables : t Weak.t list ref = ref []
let tables_lock = Mutex.create ()

let live_tables () =
  Mutex.lock tables_lock;
  let live = List.filter_map (fun w -> Weak.get w 0) !tables in
  Mutex.unlock tables_lock;
  live

let create () =
  let t =
    { rows = Array.make (Registry.max_threads * stride) 0; cleaner = ignore }
  in
  (* A domain dying inside a guard (chaos kill points) must not read as
     a stall forever: the quarantine pass clears its row.  Abandoned
     slots (no quarantine pass) stay stamped — that is the stall the
     watchdog exists to flag. *)
  let cleaner tid =
    let base = tid * stride in
    t.rows.(base + 2) <- 0;
    t.rows.(base) <- 0
  in
  t.cleaner <- cleaner;
  Registry.on_quarantine cleaner;
  let w = Weak.create 1 in
  Weak.set w 0 (Some t);
  Mutex.lock tables_lock;
  tables := w :: List.filter (fun w -> Weak.check w 0) !tables;
  Mutex.unlock tables_lock;
  t

let enter t ~tid =
  let now = Atomic.get clock in
  if now > 0 then begin
    let base = tid * stride in
    let d = t.rows.(base + 2) in
    t.rows.(base + 2) <- d + 1;
    if d = 0 then begin
      t.rows.(base + 1) <- Registry.generation tid;
      t.rows.(base) <- now
    end
  end

let leave t ~tid =
  if Atomic.get clock > 0 then begin
    let base = tid * stride in
    (* clamp: the plane may have started between this guard's enter and
       leave, in which case enter never counted *)
    let d = t.rows.(base + 2) - 1 in
    let d = if d < 0 then 0 else d in
    t.rows.(base + 2) <- d;
    if d = 0 then t.rows.(base) <- 0
  end

(* A stamped row is a live stall only if the slot still belongs to the
   thread that stamped it: the slot must be in use and its generation
   unchanged (a recycled tid carries a bumped generation, so a new
   owner's row is never blamed for its predecessor's guard). *)
let row_age t now tid =
  let base = tid * stride in
  let stamp = t.rows.(base) in
  if
    stamp > 0 && stamp <= now
    && Registry.in_use tid
    && Registry.generation tid = t.rows.(base + 1)
  then now - stamp
  else -1

let stall_age_max t =
  let now = Atomic.get clock in
  let mx = ref 0 in
  for tid = 0 to Registry.registered () - 1 do
    let age = row_age t now tid in
    if age > !mx then mx := age
  done;
  !mx

let check ?(max_age = 3) () =
  let now = Atomic.get clock in
  if now = 0 then []
  else begin
    (* dedup by tid across tables, keeping the oldest age *)
    let worst = Hashtbl.create 8 in
    List.iter
      (fun t ->
        for tid = 0 to Registry.registered () - 1 do
          let age = row_age t now tid in
          if age >= max_age then
            match Hashtbl.find_opt worst tid with
            | Some a when a >= age -> ()
            | _ -> Hashtbl.replace worst tid age
        done)
      (live_tables ());
    Hashtbl.fold (fun tid age acc -> (tid, age) :: acc) worst []
    |> List.sort compare
  end

let pause () =
  let t = Atomic.get clock in
  if t > 0 then Atomic.set paused_at t;
  Atomic.set clock 0;
  List.iter (fun t -> Array.fill t.rows 0 (Array.length t.rows) 0)
    (live_tables ())
