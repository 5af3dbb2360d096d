(** Lock-free MPSC transfer channel between mutators and reclaimers.

    Mutator retire paths that cross their scan threshold package the
    swapped-out retire batch as a {e job} — a closure that splices the
    batch into the {b running} thread's per-tid state and scans — and
    {!send} it; a background reclaimer domain ({!Reclaimer}) {!drain}s
    and runs the jobs off the mutator critical path.  Producers use the
    [Memdom.Pool] transfer-stack idiom (Treiber CAS-prepend, with
    [Atomicx.Backoff] under contention); the consumer takes the whole
    stack with one [Atomic.exchange] and replays it in FIFO order.

    {b Graceful degradation is the caller's contract:} [send] returns
    [false] — never blocks, never queues past the bound — when the
    channel is closed (reclaimer dead/stopping) or its depth (in
    retired objects) would exceed the bound (reclaimer behind).  The
    caller must then reclaim inline, exactly as if background mode were
    off.  Rejections are counted as fallbacks. *)

type t

type route = t option Atomic.t
(** A scheme's background route: [None] reclaims inline, [Some ch]
    ships retire batches to [ch]. *)

type job = { count : int; run : tid:int -> unit }
(** [count] retired objects travel with the closure; [run ~tid] must
    splice them into tid-local state of the thread executing it and
    may scan.  Jobs must not assume which thread runs them: the
    reclaimer normally, but any thread may {!drain} during recovery. *)

val default_bound : int
(** 1024 objects. *)

val create : ?bound:int -> ?registry:Obs.Metrics.t -> unit -> t
(** A fresh open channel.  [bound] (default {!default_bound}) caps the
    queued-object depth, triggering backpressure.  Registers the
    channel-depth gauge [orcgc_bg_depth] and the
    [orcgc_bg_{sent,fallback,drained,drains}_total] counters as weak
    probes in [registry] (default [Obs.Metrics.default]); the channel
    record keeps them alive. *)

val send : t -> tid:int -> count:int -> (tid:int -> unit) -> bool
(** [send t ~tid ~count run] enqueues the job unless the channel is
    closed or [count] more objects would exceed the bound, in which
    case it returns [false] and the caller reclaims inline.
    Lock-free; [tid] is the sending thread (sharded counters). *)

val drain : t -> tid:int -> int
(** Take the whole backlog and run it FIFO on the calling thread;
    returns objects processed.  Callable by any registered thread —
    the reclaimer on its tick, or a recovery path after the reclaimer
    died.  Concurrent drains hand each job to exactly one drainer. *)

val close : t -> unit
(** Make every subsequent [send] fail (degrade to inline).  Jobs
    already queued stay queued: the closer should {!drain} afterwards.
    Idempotent. *)

val reopen : t -> unit
(** Clear the closed flag (a restarted reclaimer resumes service). *)

val closed : t -> bool

val depth : t -> int
(** Objects currently queued. *)

val bound : t -> int

val sent : t -> int
val fallbacks : t -> int
val drained : t -> int

val keep_alive : t -> unit
(** [Sys.opaque_identity] on the probe closures — call sites that drop
    the channel record early can pin the metrics explicitly. *)
