open Atomicx

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type active = {
  ring : Ring.t;
  retire_free : Hist.t;
  guard : Hist.t;
  scan : Hist.t;
  adopt : Hist.t; (* orphan publish -> adoption latency *)
  guard_begin_ns : int array; (* [tid]; owner-written nesting-outermost ts *)
  guard_depth : int array; (* [tid]; owner-written *)
  clock : unit -> int;
}

(* The null sink is a constant constructor: every instrumentation hook
   starts with a one-branch match and returns before touching the clock
   or allocating — compiled-in tracing at zero cost when disabled. *)
type t = Null | Active of active

let null = Null

let make ?capacity ?(clock = now_ns) () =
  Active
    {
      ring = Ring.create ?capacity ();
      retire_free = Hist.create ();
      guard = Hist.create ();
      scan = Hist.create ();
      adopt = Hist.create ();
      guard_begin_ns = Array.make Registry.max_threads 0;
      guard_depth = Array.make Registry.max_threads 0;
      clock;
    }

let is_null = function Null -> true | Active _ -> false
let enabled = function Null -> false | Active _ -> true

(* Ambient default, consulted by [Memdom.Alloc.create] (and therefore by
   every data structure that builds its own allocator) when no sink is
   passed explicitly.  Null unless a bench/test opts in. *)
let default = ref Null

let with_default sink f =
  let saved = !default in
  default := sink;
  Fun.protect ~finally:(fun () -> default := saved) f

let now = function Null -> 0 | Active a -> a.clock ()

let emit t ~tid ~kind ~uid ~arg =
  match t with
  | Null -> ()
  | Active a -> Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind ~uid ~arg

let on_alloc t ~tid ~uid =
  match t with
  | Null -> ()
  | Active a -> Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Alloc ~uid ~arg:0

(* Returns the retire timestamp (0 under the null sink); the scheme
   stamps it into the object header so that the free side — which may
   run on another thread long after — can measure retire→free latency
   without any shared lookup table. *)
let on_retire t ~tid ~uid =
  match t with
  | Null -> 0
  | Active a ->
      let ts = a.clock () in
      Ring.emit a.ring ~tid ~ts ~kind:Event.Retire ~uid ~arg:0;
      ts

(* The header keeps the retire stamp mod 2^[stamp_bits] (Memdom.Hdr
   packs it beside the arena slot), so the latency is taken mod
   2^[stamp_bits] too: exact for any latency under 2^38 ns (~4.6 min),
   whether [retired_ns] is a full timestamp or the truncated stamp. *)
let stamp_bits = 38
let stamp_mask = (1 lsl stamp_bits) - 1

let on_free t ~tid ~uid ~retired_ns =
  match t with
  | Null -> ()
  | Active a ->
      let ts = a.clock () in
      Ring.emit a.ring ~tid ~ts ~kind:Event.Free ~uid ~arg:0;
      if retired_ns > 0 then
        Hist.record a.retire_free ~tid ((ts - retired_ns) land stamp_mask)

let on_recycle t ~tid ~uid ~gen =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Recycle ~uid ~arg:gen

let on_refill t ~tid ~count =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Refill ~uid:0
        ~arg:count

let on_handover t ~tid ~uid =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Handover ~uid ~arg:0

let on_cascade t ~tid ~uid =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Cascade ~uid ~arg:0

(* Returns the publication timestamp (0 under the null sink); the
   orphan pool keeps it with the batch so the adopting thread — another
   thread, arbitrarily later — can record publish→adopt latency. *)
let on_orphan t ~tid ~count =
  match t with
  | Null -> 0
  | Active a ->
      let ts = a.clock () in
      Ring.emit a.ring ~tid ~ts ~kind:Event.Orphan ~uid:0 ~arg:count;
      ts

let on_adopt t ~tid ~count ~published_ns =
  match t with
  | Null -> ()
  | Active a ->
      let ts = a.clock () in
      Ring.emit a.ring ~tid ~ts ~kind:Event.Adopt ~uid:0 ~arg:count;
      if published_ns > 0 then Hist.record a.adopt ~tid (ts - published_ns)

let on_snapshot t ~tid ~entries =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Snapshot ~uid:0
        ~arg:entries

let on_elide t ~tid =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Elide ~uid:0 ~arg:0

let on_stall t ~tid ~stalled ~age =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Stall ~uid:stalled
        ~arg:age

let on_neutralize t ~tid ~stalled ~age =
  match t with
  | Null -> ()
  | Active a ->
      Ring.emit a.ring ~tid ~ts:(a.clock ()) ~kind:Event.Neutralize
        ~uid:stalled ~arg:age

let scan_begin t = match t with Null -> 0 | Active a -> a.clock ()

let scan_end t ~tid ~slots ~began =
  match t with
  | Null -> ()
  | Active a ->
      let ts = a.clock () in
      Ring.emit a.ring ~tid ~ts ~kind:Event.Scan ~uid:0 ~arg:slots;
      Hist.record a.scan ~tid (ts - began)

(* Guards nest (orc guards via [with_guard], manual schemes via
   begin_op/end_op around helper calls); the duration histogram records
   the outermost span, the ring records every begin/end pair. *)
let guard_begin t ~tid =
  match t with
  | Null -> ()
  | Active a ->
      let ts = a.clock () in
      let d = a.guard_depth.(tid) in
      a.guard_depth.(tid) <- d + 1;
      if d = 0 then a.guard_begin_ns.(tid) <- ts;
      Ring.emit a.ring ~tid ~ts ~kind:Event.Guard_begin ~uid:0 ~arg:d

let guard_end t ~tid =
  match t with
  | Null -> ()
  | Active a ->
      let ts = a.clock () in
      let d = a.guard_depth.(tid) - 1 in
      let d = if d < 0 then 0 else d in
      a.guard_depth.(tid) <- d;
      if d = 0 && a.guard_begin_ns.(tid) > 0 then begin
        Hist.record a.guard ~tid (ts - a.guard_begin_ns.(tid));
        a.guard_begin_ns.(tid) <- 0
      end;
      Ring.emit a.ring ~tid ~ts ~kind:Event.Guard_end ~uid:0 ~arg:d

let ring = function Null -> None | Active a -> Some a.ring
let retire_free_hist = function Null -> None | Active a -> Some a.retire_free
let guard_hist = function Null -> None | Active a -> Some a.guard
let scan_hist = function Null -> None | Active a -> Some a.scan
let adopt_hist = function Null -> None | Active a -> Some a.adopt

let events t =
  match t with Null -> [] | Active a -> Ring.snapshot_all a.ring

let hists t =
  match t with
  | Null -> []
  | Active a ->
      [
        ("retire_free", a.retire_free);
        ("guard", a.guard);
        ("scan", a.scan);
        ("adopt", a.adopt);
      ]
