type mode = System | Pool

(* Allocation and free totals are sharded per registry slot: every
   [hdr]/[free] touches only the calling thread's padded cell, so the
   allocator hot path carries no shared cache line (the era clock is
   global but only written by explicit [bump_era] calls).  The uid is
   derived from the same per-thread cell — [local * max_threads + tid]
   — which keeps it unique without a global counter: cells are
   monotonic and survive tid reuse across domains.  Recycled headers
   draw a fresh ticket too, so uids never repeat even in Pool mode.

   [pool] is the type-stable free-list machinery behind Pool mode
   (Some iff mode = Pool): freed headers go back to per-slot LIFOs and
   come out again through [Hdr.recycle] instead of being rebuilt.
   System mode never touches it — strict headers, fresh records,
   poisoning on free — byte-for-byte the pre-pool behaviour. *)
type t = {
  mode : mode;
  name : string;
  label : int; (* [name]'s interned id, stamped into every header *)
  sink : Obs.Sink.t;
  n_alloc : Atomicx.Shard.t;
  n_freed : Atomicx.Shard.t;
  era_clock : int Atomic.t;
  pool : Pool.t option;
  (* strong reference keeping the weakly-registered metrics probes
     alive exactly as long as this allocator *)
  mutable metrics : (string * (unit -> int)) list;
}

let create ?(mode = System) ?sink name =
  let sink = match sink with Some s -> s | None -> !Obs.Sink.default in
  let t =
    {
      mode;
      name;
      label = Hdr.intern name;
      sink;
      n_alloc = Atomicx.Shard.create ();
      n_freed = Atomicx.Shard.create ();
      era_clock = Atomic.make 1;
      pool = (match mode with System -> None | Pool -> Some (Pool.create sink));
      metrics = [];
    }
  in
  (* Allocator-economy probes, labelled by allocator name; instances
     sharing a name aggregate by summation at sample time (the
     [Obs.Metrics.probe] contract).  Pool economics are only registered
     when a pool exists, so System-mode series do not export constant
     zeros. *)
  let labels = [ ("alloc", name) ] in
  let counters =
    [
      ("orcgc_alloc_total", fun () -> Atomicx.Shard.get t.n_alloc);
      ("orcgc_freed_total", fun () -> Atomicx.Shard.get t.n_freed);
    ]
    @
    match t.pool with
    | None -> []
    | Some p ->
        [
          ("orcgc_pool_hits_total", fun () -> Pool.hits p);
          ("orcgc_pool_misses_total", fun () -> Pool.misses p);
          ("orcgc_pool_remote_frees_total", fun () -> Pool.remote_frees p);
          ("orcgc_pool_refills_total", fun () -> Pool.refills p);
        ]
  in
  let gauges =
    [
      ( "orcgc_live",
        fun () ->
          let a = Atomicx.Shard.get t.n_alloc in
          let f = Atomicx.Shard.get t.n_freed in
          a - f );
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

let mode t = t.mode
let label t = t.name
let sink t = t.sink

let next_uid t ~tid =
  let local = Atomicx.Shard.fetch_incr t.n_alloc ~tid in
  (local * Atomicx.Registry.max_threads) + tid

let fresh t ~tid =
  let uid = next_uid t ~tid in
  Obs.Sink.on_alloc t.sink ~tid ~uid;
  Hdr.make ~uid ~label:t.label ~strict:(t.mode = System)
    ~birth_era:(Atomic.get t.era_clock)

let hdr t () =
  let tid = Atomicx.Registry.tid () in
  match t.pool with
  | None -> fresh t ~tid
  | Some p ->
      let h = Pool.acquire p ~tid in
      if h == Pool.miss then fresh t ~tid
      else begin
        (* recycled hit: restamp the same header — one CAS plus field
           stores, no minor-heap allocation; its label id is already
           this allocator's. *)
        let uid = next_uid t ~tid in
        Hdr.recycle h ~uid ~birth_era:(Atomic.get t.era_clock);
        Obs.Sink.on_recycle t.sink ~tid ~uid ~gen:(Hdr.generation h);
        h
      end

let free t h =
  Hdr.mark_freed h;
  (* Freed ⇒ no scheme protects the object, so its link arena
     slot (if it ever got one) can be recycled for a future node.  The
     retire stamp shares the slot's word: read it first. *)
  let tid = Atomicx.Registry.tid () in
  let retired_ns = Hdr.retired_stamp h in
  Hdr.release_slot h ~tid;
  Atomicx.Shard.incr t.n_freed ~tid;
  Obs.Sink.on_free t.sink ~tid ~uid:h.Hdr.uid ~retired_ns;
  match t.pool with None -> () | Some p -> Pool.release p ~tid h

let era t = Atomic.get t.era_clock
let bump_era t = 1 + Atomic.fetch_and_add t.era_clock 1
let allocated t = Atomicx.Shard.get t.n_alloc
let freed t = Atomicx.Shard.get t.n_freed
(* Sequence allocated-first: both shards only grow, so reading [freed]
   second can only shrink the difference — a concurrent sampler never
   reports more live objects than actually existed at the first read.
   (`allocated t - freed t` evaluates right to left, and a sampler
   descheduled between the reads overcounts by everything allocated in
   the gap.) *)
let live t =
  let a = allocated t in
  let f = freed t in
  a - f

let pool_hits t = match t.pool with None -> 0 | Some p -> Pool.hits p
let pool_misses t = match t.pool with None -> 0 | Some p -> Pool.misses p

let remote_frees t =
  match t.pool with None -> 0 | Some p -> Pool.remote_frees p

let refills t = match t.pool with None -> 0 | Some p -> Pool.refills p

let hit_rate t =
  let h = pool_hits t and m = pool_misses t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let pp_stats fmt t =
  Format.fprintf fmt "%s: allocated=%d freed=%d live=%d" t.name (allocated t)
    (freed t) (live t);
  match t.pool with
  | None -> ()
  | Some p ->
      Format.fprintf fmt
        " pool: hits=%d misses=%d hit-rate=%.1f%% remote-frees=%d refills=%d"
        (Pool.hits p) (Pool.misses p)
        (100. *. hit_rate t)
        (Pool.remote_frees p) (Pool.refills p)
