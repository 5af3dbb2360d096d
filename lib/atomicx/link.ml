(* Atomic links: one word per link, the C++ original's
   [std::atomic<T*>] with the mark bits in the low bits.  A word names
   its target by arena slot and carries a per-link write stamp above the
   slot field:

     bits 0-2   mark/flag/tag          (0 clean, 1 mark, 2 flag, 4 tag,
                                        6 flag+tag)
     bits 3-26  slot + 1               (0 = no target)
     bits 27-61 write stamp            (previous stamp + 1 on every write)

   Null and Poison are the payloads 0 and 1 (no target).  Every write
   ([set_v], [cas_v], [exchange_v]) installs the previous word's stamp
   plus one, so a word read before any later write to the same link
   never reappears in it (short of 2^35 writes): a CAS or a [view_eq]
   against a stale view fails, the ABA-freedom the TBKP list, the turn
   and KP queues, the NM tree and CRF-skip rely on (DESIGN.md §4.1).
   Null and Poison carry no identity and compare by payload alone.
   Views are the raw words; reading, comparing and bit-twiddling them
   never allocates. *)

type 'a state =
  | Null
  | Ptr of 'a
  | Mark of 'a
  | Flag of 'a
  | Tag of 'a
  | FlagTag of 'a
  | Poison

(* {2 Arena: a per-structure lock-free handle table}

   Nodes are registered into fixed-size chunks (never moved, so a
   concurrent registration store can't be lost to a growth copy) and
   addressed by slot index.  A slot keeps its last occupant until
   reuse, which is exactly the type-stable-memory semantics the paper's
   schemes assume.  A chunk is its [nodes] array itself, one word per
   slot; an empty array marks a chunk not yet materialized, as
   [Split_order]'s directory segments do, so a deref reads no option
   block and no chunk record.

   Released slots go first to the releasing tid's own cache: an
   owner-only LIFO of at most [arena_cache_cap] slots, so a release
   followed by a registration on the same tid touches no shared word
   and allocates nothing.  Behind the caches, the shared free list is a
   Treiber stack of slot batches, touched only in batches: a full cache
   spills its older half onto it as one batch array (one array and one
   cons), an empty cache refills by popping one batch, and the
   quarantine cleaner pushes a dead tid's cached slots as one batch.
   Cons cells are never reused while reachable, so a pop's CAS on the
   head it read is ABA-free with no version counter.  Only when both
   are empty does a registration bump [next_fresh]. *)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let n_chunks = 8192

(* Sized for the KV-service scenario: a split-ordered map at 4M regular
   keys plus its dummy nodes must fit one arena (chunks are lazy, so a
   small structure still only materialises the slots it touches).
   [Memdom.Hdr] keeps slot + 1 in 24 bits. *)
let max_slots = n_chunks * chunk_size
let arena_cache_cap = 64
let cache_batch = arena_cache_cap / 2

type 'a arena = {
  chunks : Obj.t array Atomic.t array;
  shared : int array list Atomic.t;
  next_fresh : int Atomic.t;
  slot_of : Obj.t -> int;
  on_register : Obj.t -> int -> release:(tid:int -> int -> unit) -> unit;
  mutable release_fn : tid:int -> int -> unit;
  (* per tid, owner-only: [|n; s1; ..; sn; ..|], the top at index n;
     [no_cache] until the tid's first release or registration *)
  caches : int array array;
  n_registered : Shard.t;
  n_released : Shard.t;
  (* strong reference: the registry holds quarantine cleaners weakly,
     so the registration lives exactly as long as the arena *)
  mutable cleaner : int -> unit;
}

let no_cache : int array = [||]

(* Materialize chunk [b]; losing the race drops an unused array. *)
let ensure_chunk a b =
  let cell = a.chunks.(b) in
  let c = Atomic.get cell in
  if Array.length c = 0 then
    ignore
      (Atomic.compare_and_set cell c (Array.make chunk_size (Obj.repr 0)))

(* Deref is the read hot path: the chunk cell's atomic load and the
   slot's plain load, no allocation. *)
let deref a s =
  let c = Atomic.get a.chunks.(s lsr chunk_bits) in
  if Array.length c = 0 then
    invalid_arg "Link.arena: dereference of unallocated chunk"
  else
    let n = Array.unsafe_get c (s land (chunk_size - 1)) in
    if n == Obj.repr 0 then
      invalid_arg "Link.arena: dereference of unregistered slot"
    else Obj.obj n

let rec push_batch a b =
  let cur = Atomic.get a.shared in
  if not (Atomic.compare_and_set a.shared cur (b :: cur)) then push_batch a b

(* Push [c.(i) .. c.(i + k - 1)] onto the shared list as one batch. *)
let push_shared a c i k = push_batch a (Array.sub c i k)

(* Pop one batch into the empty cache [c]; the number taken. *)
let rec refill a c =
  match Atomic.get a.shared with
  | [] -> 0
  | b :: rest as cur ->
      if Atomic.compare_and_set a.shared cur rest then begin
        let n = Array.length b in
        Array.blit b 0 c 1 n;
        c.(0) <- n;
        n
      end
      else refill a c

let cache_of a tid =
  let c = Array.unsafe_get a.caches tid in
  if c != no_cache then c
  else begin
    let c = Array.make (arena_cache_cap + 1) 0 in
    a.caches.(tid) <- c;
    c
  end

(* A full cache spills its older half, keeping the most recently
   released slots (whose table entries are the warm ones) on top. *)
let release_slot a ~tid s =
  if s >= 0 && s < max_slots then begin
    Shard.incr a.n_released ~tid;
    let c = cache_of a tid in
    let n = c.(0) in
    let n =
      if n < arena_cache_cap then n
      else begin
        push_shared a c 1 cache_batch;
        Array.blit c (cache_batch + 1) c 1 (arena_cache_cap - cache_batch);
        arena_cache_cap - cache_batch
      end
    in
    c.(n + 1) <- s;
    c.(0) <- n + 1
  end

(* A released slot from [tid]'s cache, refilled from the shared list
   when empty; -1 when both are empty.  The slot still holds its last
   occupant, and counts as registered from here on. *)
let reuse_slot a ~tid =
  let c = cache_of a tid in
  let n = c.(0) in
  let n = if n > 0 then n else refill a c in
  if n > 0 then begin
    c.(0) <- n - 1;
    Shard.incr a.n_registered ~tid;
    c.(n)
  end
  else -1

let alloc_slot a ~tid =
  let s = reuse_slot a ~tid in
  if s >= 0 then s
  else
    let s = Atomic.fetch_and_add a.next_fresh 1 in
    if s >= max_slots then failwith "Link.arena: slot table exhausted";
    ensure_chunk a (s lsr chunk_bits);
    Shard.incr a.n_registered ~tid;
    s

let occupant a s = deref a s

(* Registration must be performed by the thread that owns the node
   privately (in practice: its allocator, before first publication), so
   it needs no synchronization against itself.  The slot's content
   store is published to other threads by the atomic link-word store
   that follows it.  A record re-bound to the slot it already occupies
   costs no store (and no [caml_modify]). *)
let bind a s n =
  let c = Atomic.get a.chunks.(s lsr chunk_bits) in
  let i = s land (chunk_size - 1) in
  if Array.unsafe_get c i != Obj.repr n then c.(i) <- Obj.repr n;
  a.on_register (Obj.repr n) s ~release:a.release_fn

let register a n =
  let s = alloc_slot a ~tid:(Registry.tid ()) in
  bind a s n;
  s

let release = release_slot

let ensure_registered a n =
  let s = a.slot_of (Obj.repr n) in
  if s >= 0 then s else register a n

let arena (type n) ~(slot_of : n -> int)
    ~(on_register : n -> int -> release:(tid:int -> int -> unit) -> unit) ()
    =
  let a =
    {
      chunks = Array.init n_chunks (fun _ -> Atomic.make [||]);
      shared = Atomic.make [];
      next_fresh = Atomic.make 0;
      slot_of = (fun o -> slot_of (Obj.obj o));
      on_register = (fun o s ~release -> on_register (Obj.obj o) s ~release);
      release_fn = (fun ~tid:_ _ -> ());
      caches = Array.make Registry.max_threads no_cache;
      n_registered = Shard.create ();
      n_released = Shard.create ();
      cleaner = ignore;
    }
  in
  a.release_fn <- (fun ~tid s -> release_slot a ~tid s);
  (* Quarantine cleaner: the dead tid's cached slots go back to the
     shared list.  The tid is Quarantined while this runs, so its cache
     has no concurrent owner. *)
  a.cleaner <-
    (fun dead ->
      let c = a.caches.(dead) in
      if c != no_cache && c.(0) > 0 then begin
        push_shared a c 1 c.(0);
        c.(0) <- 0
      end);
  Registry.on_quarantine a.cleaner;
  (Obj.magic a : n arena)

let arena_registered a = Shard.get a.n_registered
let arena_released a = Shard.get a.n_released

(* Registered first: both shards only grow, so the difference read
   this way never exceeds the slots that were live at the first read. *)
let arena_live a =
  let r = arena_registered a in
  r - arena_released a

let arena_capacity a = Atomic.get a.next_fresh

let arena_cached a ~tid =
  let c = a.caches.(tid) in
  if c == no_cache then 0 else c.(0)

let arena_shared_free a =
  List.fold_left (fun n b -> n + Array.length b) 0 (Atomic.get a.shared)

(* {2 Word encoding} *)

let b_mark = 1
let b_flag = 2
let b_tag = 4
let b_flagtag = 6
let w_null = 0
let w_poison = 1
let stamp_shift = 27
let payload_mask = (1 lsl stamp_shift) - 1
let slot_field = payload_mask land lnot 7

(* 35 stamp bits keep every word non-negative *)
let stamp_mask = (1 lsl 35) - 1

let word_of a n bits = ((ensure_registered a n + 1) lsl 3) lor bits

let encode a = function
  | Null -> w_null
  | Poison -> w_poison
  | Ptr n -> word_of a n 0
  | Mark n -> word_of a n b_mark
  | Flag n -> word_of a n b_flag
  | Tag n -> word_of a n b_tag
  | FlagTag n -> word_of a n b_flagtag

let slot_of_word w = ((w land slot_field) lsr 3) - 1

let decode a w =
  match w land payload_mask with
  | 0 -> Null
  | 1 -> Poison
  | p -> (
      let n = deref a (slot_of_word p) in
      match p land 7 with
      | 0 -> Ptr n
      | 1 -> Mark n
      | 2 -> Flag n
      | 4 -> Tag n
      | 6 -> FlagTag n
      | _ -> assert false)

(* {2 Views} *)

type 'a view = int

(* [d]'s payload under the stamp that follows [w]'s *)
let v_after (w : 'a view) (d : 'a view) : 'a view =
  (d land payload_mask)
  lor ((((w lsr stamp_shift) + 1) land stamp_mask) lsl stamp_shift)

let view_eq (a : 'a view) (b : 'a view) =
  a = b || ((a lor b) land slot_field = 0 && a land 7 = b land 7)

let v_null : 'a view = w_null
let v_poison : 'a view = w_poison
let v_is_null (v : 'a view) = v land payload_mask = w_null
let v_is_poison (v : 'a view) = v land payload_mask = w_poison
let v_has_target (v : 'a view) = v land slot_field <> 0
let v_is_marked (v : 'a view) = v_has_target v && v land 7 = b_mark
let v_is_flagged (v : 'a view) = v_has_target v && v land b_flag <> 0
let v_is_tagged (v : 'a view) = v_has_target v && v land b_tag <> 0

let v_clean (v : 'a view) : 'a view =
  if v_has_target v then v land lnot 7 else v

let v_mark (v : 'a view) : 'a view =
  if v_has_target v then (v land lnot 7) lor b_mark else v

(* the BST edge bits: a marked word (list deletion) takes neither *)
let v_flag (v : 'a view) : 'a view =
  if v_has_target v && v land 7 <> b_mark then v lor b_flag else v

let v_tag (v : 'a view) : 'a view =
  if v_has_target v && v land 7 <> b_mark then v lor b_tag else v

let v_same (a : 'a view) (b : 'a view) =
  a land payload_mask = b land payload_mask

let v_node a (v : 'a view) =
  if v_has_target v then deref a (slot_of_word v)
  else invalid_arg "Link.v_node: no target"

let v_ptr_in a (n : 'a) : 'a view = word_of a n 0
let v_of_state_in a (st : 'a state) : 'a view = encode a st
let v_state_in a (v : 'a view) : 'a state = decode a v

(* {2 Links}

   A link is a heap block whose field 0, [word], is the link word and
   whose field 1 is the arena; the atomic primitives act on field 0 of
   the block they are given, so [w l] views the link itself as the
   [int Atomic.t] it holds.  Only fields 0 and 1 are ever read through
   a ['a t], so a longer record with the same two leading fields (a
   node that embeds its link) is a link too: [embedded] is that view.
   Invariant: [word] is read and written only through [w], except by
   the record literals that initialise it before the link is
   published. *)

type 'a t = { mutable word : int; arena : 'a arena }

let w (l : 'a t) : int Atomic.t = Obj.magic l
let embedded (r : 'r) : 'a t = Obj.magic r
let make_in a st = { word = encode a st; arena = a }
let make_of_view a (v : 'a view) = { word = v land payload_mask; arena = a }
let view l : 'a view = Atomic.get (w l)
let v_target_exn l v = v_node l.arena v
let v_state l v = decode l.arena v

let rec exchange_v l (v : 'a view) : 'a view =
  let cur = Atomic.get (w l) in
  if Atomic.compare_and_set (w l) cur (v_after cur v) then cur
  else exchange_v l v

let set_v l v = ignore (exchange_v l v)

(* A target-bearing expectation is one exact word, stamp included.  A
   Null/Poison expectation matches the payload under any stamp, so the
   current word is re-read until the CAS lands or the payload differs. *)
let rec cas_v l (expected : 'a view) (desired : 'a view) =
  if v_has_target expected then
    Atomic.compare_and_set (w l) expected (v_after expected desired)
  else
    let cur = Atomic.get (w l) in
    cur land payload_mask = expected land payload_mask
    && (Atomic.compare_and_set (w l) cur (v_after cur desired)
       || cas_v l expected desired)

let get l = decode l.arena (Atomic.get (w l))
let set l st = set_v l (encode l.arena st)

let target = function
  | Null | Poison -> None
  | Ptr n | Mark n | Flag n | Tag n | FlagTag n -> Some n

let is_marked = function
  | Mark _ -> true
  | Null | Ptr _ | Flag _ | Tag _ | FlagTag _ | Poison -> false

let is_poison = function
  | Poison -> true
  | Null | Ptr _ | Mark _ | Flag _ | Tag _ | FlagTag _ -> false
