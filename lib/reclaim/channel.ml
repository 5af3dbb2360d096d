(* Lock-free MPSC transfer channel: the conveyor belt between mutator
   retire paths and the background reclaimer domain.

   Producers push {!job}s — closures that move a swapped-out retire
   batch into the running thread's per-tid state and scan — onto a
   Treiber stack (CAS-prepend with [Atomicx.Backoff] under contention,
   the same shape as the [Memdom.Pool] remote-free transfer stack but
   generalized over closures instead of header chains).  The consumer
   drains with one [Atomic.exchange] and runs the batch in FIFO order.

   Fault tolerance lives in [send]'s refusal paths: a channel that is
   [close]d (reclaimer dead or stopping) or whose depth — counted in
   retired objects, not jobs — is at the bound (reclaimer behind)
   rejects the job, and the caller reclaims inline.  That refusal is
   the backpressure mechanism: mutators never block on the channel and
   never queue unboundedly ahead of a slow consumer.

   [drain] is deliberately not consumer-private: after a reclaimer dies
   the recovery path (chaos harness, [flush]) drains the
   backlog from any registered thread.  Concurrent drains are safe —
   the exchange hands each job to exactly one drainer. *)

open Atomicx

type job = { count : int; run : tid:int -> unit }

type t = {
  jobs : job list Atomic.t;
  depth : int Atomic.t;  (* objects currently queued, advisory bound *)
  bound : int;
  closed : bool Atomic.t;
  sent : Shard.t;
  fallbacks : Shard.t;
  drained_objs : Shard.t;
  drains : Shard.t;
  keep : (string * (unit -> int)) list;  (* weak metric probes, kept here *)
}

type route = t option Atomic.t

let default_bound = 1024

let create ?(bound = default_bound) ?(registry = Obs.Metrics.default) () =
  if bound < 1 then invalid_arg "Channel.create: bound < 1";
  let depth = Atomic.make 0 in
  let sent = Shard.create () in
  let fallbacks = Shard.create () in
  let drained_objs = Shard.create () in
  let drains = Shard.create () in
  let counters =
    [
      ("orcgc_bg_sent_total", fun () -> Shard.get sent);
      ("orcgc_bg_fallback_total", fun () -> Shard.get fallbacks);
      ("orcgc_bg_drained_total", fun () -> Shard.get drained_objs);
      ("orcgc_bg_drains_total", fun () -> Shard.get drains);
    ]
  and gauges = [ ("orcgc_bg_depth", fun () -> Atomic.get depth) ] in
  List.iter
    (fun (name, f) -> Obs.Metrics.probe registry ~counter:true name f)
    counters;
  List.iter (fun (name, f) -> Obs.Metrics.probe registry name f) gauges;
  {
    jobs = Atomic.make [];
    depth;
    bound;
    closed = Atomic.make false;
    sent;
    fallbacks;
    drained_objs;
    drains;
    keep = counters @ gauges;
  }

let push t j =
  let cur = Atomic.get t.jobs in
  if not (Atomic.compare_and_set t.jobs cur (j :: cur)) then begin
    let b = Backoff.create () in
    let rec retry () =
      Backoff.once b;
      let cur = Atomic.get t.jobs in
      if not (Atomic.compare_and_set t.jobs cur (j :: cur)) then retry ()
    in
    retry ()
  end

let send t ~tid ~count run =
  if Atomic.get t.closed || Atomic.get t.depth + count > t.bound
  then begin
    Shard.incr t.fallbacks ~tid;
    false
  end
  else begin
    (* Reserve depth before the push so a racing send observes the
       combined load; the bound stays advisory (two racing senders can
       overshoot by one batch each), which is all backpressure needs. *)
    ignore (Atomic.fetch_and_add t.depth count);
    push t { count; run };
    Shard.add t.sent ~tid count;
    true
  end

let drain t ~tid =
  match Atomic.get t.jobs with
  | [] -> 0
  | _ ->
      let batch = List.rev (Atomic.exchange t.jobs []) in
      Shard.incr t.drains ~tid;
      List.fold_left
        (fun n j ->
          (* Depth drops as each job leaves the queue, releasing
             backpressure progressively during a long drain.  The job
             runs after the decrement: once handed to [run], its
             objects are the running scheme's liability, not the
             channel's. *)
          ignore (Atomic.fetch_and_add t.depth (-j.count));
          Shard.add t.drained_objs ~tid j.count;
          j.run ~tid;
          n + j.count)
        0 batch

let close t = Atomic.set t.closed true
let reopen t = Atomic.set t.closed false
let closed t = Atomic.get t.closed
let depth t = Atomic.get t.depth
let bound t = t.bound
let sent t = Shard.get t.sent
let fallbacks t = Shard.get t.fallbacks
let drained t = Shard.get t.drained_objs
let keep_alive t = ignore (Sys.opaque_identity t.keep)
