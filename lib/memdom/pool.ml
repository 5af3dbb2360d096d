(* Type-stable header pool: per-registry-slot array stacks, remote
   frees batched to their owner through a lock-free transfer stack,
   and orphan hand-off on domain death.  See the mli for the model. *)

open Atomicx

(* Per registry slot.  [stack]/[n] and the outbox are owner-only: plain
   fields, no atomics on the hit path.  [transfer] is the remote-free
   Treiber stack of batches: any thread CAS-pushes a batch, only the
   owner takes, and it takes everything with one exchange. *)
type slot = {
  mutable stack : Hdr.t array; (* the free list, [0, n); top at n - 1 *)
  mutable n : int;
  transfer : Hdr.t array list Atomic.t;
  (* this tid's remote frees not yet sent, per owner tid: [out.(o)]
     holds [out_n.(o)] headers; both [no_out] until the first remote
     free *)
  mutable out : Hdr.t array array;
  mutable out_n : int array;
  mutable out_total : int; (* the sum of [out_n] *)
}

type t = {
  slots : slot array;
  orphans : Hdr.t Orphan.t;
  sink : Obs.Sink.t;
  hits : Shard.t;
  misses : Shard.t;
  remote : Shard.t;
  refills : Shard.t;
  reuses : Shard.t;
  _cleaner : int -> unit;
      (* strong reference: the registry holds quarantine cleaners
         weakly, so the registration lives exactly as long as the
         pool *)
}

let remote_batch = 32
let initial_stack = 64

let miss =
  Hdr.make ~uid:(-1) ~label:(Hdr.intern "pool.miss") ~strict:false
    ~birth_era:0

let no_out : Hdr.t array array = [||]
let no_out_n : int array = [||]
let no_batch : Hdr.t array = [||]

(* Slots are plain records, so after promotion two owners' slots may
   share a cache line: a spacer allocated between them would die and be
   packed away (see [Padded]). *)
let mk_slots () =
  Array.init Registry.max_threads (fun _ ->
      {
        stack = [||];
        n = 0;
        transfer = Atomic.make [];
        out = no_out;
        out_n = no_out_n;
        out_total = 0;
      })

(* The allocating owner, recovered from the uid encoding
   [local_ticket * max_threads + tid] that [Alloc] stamps. *)
let owner_of h = h.Hdr.uid mod Registry.max_threads

(* Owner-only push; the stack doubles when full, the only allocation
   of a local free and a rare one (the stack holds at most the headers
   its tid has in circulation). *)
let push s h =
  let n = s.n in
  if n = Array.length s.stack then begin
    let a = Array.make (max initial_stack (2 * n)) h in
    Array.blit s.stack 0 a 0 n;
    s.stack <- a
  end;
  Array.unsafe_set s.stack n h;
  s.n <- n + 1

(* CAS-prepend with truncated exponential backoff under contention: the
   backoff state is only allocated after the first failure. *)
let push_transfer stack b =
  let cur = Atomic.get stack in
  if not (Atomic.compare_and_set stack cur (b :: cur)) then begin
    let bo = Backoff.create () in
    let rec retry () =
      Backoff.once bo;
      let cur = Atomic.get stack in
      if not (Atomic.compare_and_set stack cur (b :: cur)) then retry ()
    in
    retry ()
  end

(* A remote free goes into the freeing tid's outbox for the owner; a
   full outbox travels to the owner's transfer stack as one batch (one
   array and one cons per [remote_batch] frees).  A partial outbox goes
   when its tid misses (see [acquire_slow]). *)
let send_remote t s ~o h =
  if s.out == no_out then begin
    s.out <- Array.make Registry.max_threads no_batch;
    s.out_n <- Array.make Registry.max_threads 0
  end;
  let b =
    let b = s.out.(o) in
    if b != no_batch then b
    else begin
      let b = Array.make remote_batch miss in
      s.out.(o) <- b;
      b
    end
  in
  let k = s.out_n.(o) in
  b.(k) <- h;
  if k + 1 < remote_batch then begin
    s.out_n.(o) <- k + 1;
    s.out_total <- s.out_total + 1
  end
  else begin
    push_transfer t.slots.(o).transfer (Array.copy b);
    s.out_n.(o) <- 0;
    s.out_total <- s.out_total - k
  end

(* Send every partial outbox.  A tid that misses is about to build a
   fresh header anyway, so this bounds how long a remote free waits:
   until its freer fills the outbox or next misses. *)
let send_partial t s =
  if s.out_total > 0 then begin
    for o = 0 to Array.length s.out_n - 1 do
      let k = s.out_n.(o) in
      if k > 0 then begin
        push_transfer t.slots.(o).transfer (Array.sub s.out.(o) 0 k);
        s.out_n.(o) <- 0
      end
    done;
    s.out_total <- 0
  end

let release t ~tid h =
  let o = owner_of h in
  let s = t.slots.(tid) in
  if o = tid then push s h
  else begin
    Shard.incr t.remote ~tid;
    send_remote t s ~o h
  end

let rec push_list s = function
  | [] -> ()
  | h :: rest ->
      push s h;
      push_list s rest

let rec push_batches s = function
  | [] -> ()
  | b :: rest ->
      for i = 0 to Array.length b - 1 do
        push s b.(i)
      done;
      push_batches s rest

let refilled t ~tid n =
  if n > 0 then begin
    Shard.incr t.refills ~tid;
    Obs.Sink.on_refill t.sink ~tid ~count:n
  end

let rec acquire t ~tid =
  let s = t.slots.(tid) in
  let n = s.n in
  if n > 0 then begin
    s.n <- n - 1;
    Shard.incr t.hits ~tid;
    Array.unsafe_get s.stack (n - 1)
  end
  else acquire_slow t s ~tid

(* The dry stack's amortized slow path: send the partial outboxes,
   take every batch remote freers sent, else adopt orphans, then pop
   again. *)
and acquire_slow t s ~tid =
  send_partial t s;
  (match Atomic.get s.transfer with
  | [] -> ()
  | _ ->
      push_batches s (Atomic.exchange s.transfer []);
      refilled t ~tid s.n);
  if s.n = 0 then begin
    push_list s (Orphan.adopt t.orphans t.sink ~tid);
    refilled t ~tid s.n
  end;
  if s.n = 0 then begin
    Shard.incr t.misses ~tid;
    miss
  end
  else acquire t ~tid

(* Everything a dead tid held, as one list: its free list, the batches
   sent to it and the remote frees it had not sent yet. *)
let holdings s =
  let acc = ref [] in
  for i = 0 to s.n - 1 do
    acc := s.stack.(i) :: !acc
  done;
  s.n <- 0;
  List.iter
    (Array.iter (fun h -> acc := h :: !acc))
    (Atomic.exchange s.transfer []);
  Array.iteri
    (fun o k ->
      for i = 0 to k - 1 do
        acc := s.out.(o).(i) :: !acc
      done;
      s.out_n.(o) <- 0)
    s.out_n;
  s.out_total <- 0;
  !acc

let create sink =
  let slots = mk_slots () in
  let orphans = Orphan.create () in
  (* Quarantine cleaner: the dead tid's holdings are one batch for the
     orphan pool.  The slot is Quarantined while this runs (owner gone,
     not yet re-issuable), so the owner-only fields have no concurrent
     writer; a remote batch racing the transfer-stack exchange can land
     after it — recovered by the slot's next owner's first miss, never
     lost. *)
  let cleaner dead =
    Orphan.publish orphans sink ~tid:dead (holdings slots.(dead))
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
    reuses = Shard.create ();
    _cleaner = cleaner;
  }

let reused t ~tid = Shard.incr t.reuses ~tid
let hits t = Shard.get t.hits
let misses t = Shard.get t.misses
let remote_frees t = Shard.get t.remote
let refills t = Shard.get t.refills
let reuses t = Shard.get t.reuses
let orphaned t = Orphan.pending t.orphans
