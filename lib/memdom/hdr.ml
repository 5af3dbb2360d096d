exception Use_after_free of string
exception Double_free of string
exception Double_retire of string

type lifecycle = Live | Retired | Freed

(* Lifecycle lives in the low two bits of [state]; the generation counter
   occupies the remaining bits and is bumped on every transition so that
   tests can detect reuse/ABA without extra fields.  The generation is
   carried across [recycle], so it is strictly monotone over a header's
   whole pooled lifetime: no two lives of the same header ever share a
   generation.

   The Live->Retired and Retired->Live transitions are single
   [Atomic.fetch_and_add]s: the generation bump and the lifecycle bit
   change are one constant delta, so the retire hot path is one atomic
   RMW with no read-before-CAS and no loop.  An invalid prior state
   shows up in the returned old value; the add is then undone before
   raising, so the word is only ever transiently wrong during a
   transition that is itself a reported bug.

   The hazard-era birth/death stamps are packed into one plain word
   ([eras], 31 bits each, death all-ones = not yet retired).  Each
   stamp has one writer at a time, and every reader is ordered after
   that writer by an atomic it already performs: the birth stamp is
   written by the allocating thread before the node is published by
   an atomic link store, the death stamp by the retiring thread (the
   single owner of the retire transition), and the only readers are
   that thread's own HE/IBR scans or an adopter that took the retired
   list through the orphan pool's atomic exchange.  A one-word load is
   never torn, so the pair still comes from one load.

   [access] is the one word [check_access] reads.  Its low two bits
   are the freed state: [tolerant] for a Pool header, [strict_live]
   for a System header, and [strict_freed] once [mark_freed] has won
   the Freed transition.  It is a copy of a fact [state] decides, kept
   in the header block itself so the per-hop check reads no second
   block; [state] stays the authority for every transition.  The bits
   above hold the allocator's interned label id, a constant of the
   header's first life, so the label costs no word of its own.

   [slot_word] packs the link arena slot and the retire stamp: slot + 1
   in bits 0-23 (0 = unregistered) and the retire timestamp mod
   2^[Obs.Sink.stamp_bits] in bits 24-61 (0 = none).  The slot half is
   written by the registering thread while it still owns the node
   privately and cleared by the freeing thread; the stamp half by the
   retiring thread (and cleared by an orc unretire, the retire's
   owner).  Those writers are ordered by the lifecycle itself —
   registration precedes publication, retire follows unlinking, free
   follows retire — so each half is a plain read-modify-write of the
   word, like the death half of [eras].  Seven fields in all: the
   size-class reason is in the mli. *)

(* Field 0 is the [_orc] word: the atomic primitives act on field 0 of
   the block they are given, so [orc t] views the header itself as
   that [int Atomic.t] and the count shares the header's block (and
   the cache line [uid] sits on).  Invariant: [_orc] is read and
   written only through [orc], except by the record literal in [make],
   which initialises it before the header is handed out.  Only one
   word per block can use this view, so [state] stays a separate
   atomic. *)
type t = {
  mutable _orc : int;
  mutable uid : int;
  mutable access : int;
  state : int Atomic.t;
  mutable eras : int;
  mutable slot_word : int;
  mutable slot_release : tid:int -> int -> unit;
}

let orc (t : t) : int Atomic.t = Obj.magic t

let orc_initial = 1 lsl 22

let tolerant = 0
let strict_live = 1
let strict_freed = 2
let freed_mask = 3
let label_shift = 2
let live_bits = 0
let retired_bits = 1
let freed_bits = 2
let state_mask = 3

(* eras word: birth in bits 0..30, death in bits 31..61; death all-ones
   encodes "not retired" (read back as [max_int]). *)
let era_bits = 31
let era_mask = (1 lsl era_bits) - 1
let death_none = era_mask

let pack_eras ~birth ~death = (birth land era_mask) lor (death lsl era_bits)

(* slot word: slot + 1 in bits 0..23, the retire stamp above. *)
let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let stamp_mask = (1 lsl Obs.Sink.stamp_bits) - 1
let () = assert (slot_bits + Obs.Sink.stamp_bits <= 62)

(* Label interning: one id per distinct allocator name, for the life of
   the process.  Only [Alloc.create] and [describe] (an error or print
   path) come here, so a mutex is cheap enough. *)
let labels_lock = Mutex.create ()
let label_ids : (string, int) Hashtbl.t = Hashtbl.create 16
let label_names = ref [||]

let intern name =
  Mutex.protect labels_lock (fun () ->
      match Hashtbl.find_opt label_ids name with
      | Some id -> id
      | None ->
          let id = Array.length !label_names in
          label_names := Array.append !label_names [| name |];
          Hashtbl.add label_ids name id;
          id)

let label t =
  let id = t.access lsr label_shift in
  Mutex.protect labels_lock (fun () ->
      if id < Array.length !label_names then !label_names.(id) else "?")

let no_release ~tid:_ (_ : int) = ()

let make ~uid ~label ~strict ~birth_era =
  {
    _orc = orc_initial;
    uid;
    access =
      (label lsl label_shift) lor if strict then strict_live else tolerant;
    state = Atomic.make live_bits;
    eras = pack_eras ~birth:birth_era ~death:death_none;
    slot_word = 0;
    slot_release = no_release;
  }

let decode bits =
  match bits land state_mask with
  | 0 -> Live
  | 1 -> Retired
  | _ -> Freed

let lifecycle t = decode (Atomic.get t.state)
let generation t = Atomic.get t.state lsr 2

let birth_era t = t.eras land era_mask

let death_era t =
  let d = (t.eras lsr era_bits) land era_mask in
  if d = death_none then max_int else d

(* Written only by the retiring thread (single owner of the retire
   transition), so a plain read-modify-write of the word suffices; the
   birth half rides along untouched. *)
let set_death_era t e =
  let d = if e < 0 || e >= death_none then death_none else e in
  t.eras <- (t.eras land era_mask) lor (d lsl era_bits)

let slot t = (t.slot_word land slot_mask) - 1

let set_slot t s =
  t.slot_word <- (t.slot_word land lnot slot_mask) lor (s + 1)

let retired_stamp t = t.slot_word lsr slot_bits

let set_retired_stamp t ts =
  t.slot_word <-
    (t.slot_word land slot_mask)
    lor ((ts land stamp_mask) lsl slot_bits)

let describe t = Printf.sprintf "%s#%d" (label t) t.uid

let check_access t =
  if t.access land freed_mask = strict_freed then
    raise (Use_after_free (describe t))

let is_freed t = Atomic.get t.state land state_mask = freed_bits

(* State transitions.  Retire/unretire: one fetch_and_add whose delta
   bumps the generation and rewrites the lifecycle bits in a single RMW;
   invalid prior states are detected from the returned value and undone
   before raising.  Free/recycle: a CAS loop (they start from two
   possible states).  All report concurrent double-free/retire attempts
   rather than racing silently, and all bump the generation exactly
   once per successful transition. *)

let next_state cur bits = (((cur lsr 2) + 1) lsl 2) lor bits

(* gen+1 with Live(00) -> Retired(01) *)
let retired_delta = (1 lsl 2) lor retired_bits

(* gen+1 with Retired(01) -> Live(00): (g+1)<<2 - (g<<2 | 1) = 3 *)
let unretire_delta = (1 lsl 2) - retired_bits

let mark_retired t =
  let old = Atomic.fetch_and_add t.state retired_delta in
  match old land state_mask with
  | 0 (* Live *) -> ()
  | bits ->
      ignore (Atomic.fetch_and_add t.state (-retired_delta));
      if bits = retired_bits then raise (Double_retire (describe t))
      else raise (Use_after_free (describe t))

let unretire t =
  let old = Atomic.fetch_and_add t.state unretire_delta in
  match old land state_mask with
  | 1 (* Retired *) -> ()
  | 0 (* Live: lost a race with another unretire *) ->
      ignore (Atomic.fetch_and_add t.state (-unretire_delta))
  | _ (* Freed *) ->
      ignore (Atomic.fetch_and_add t.state (-unretire_delta));
      raise (Use_after_free (describe t))

let rec mark_freed t =
  let cur = Atomic.get t.state in
  match cur land state_mask with
  | 0 | 1 (* Live | Retired *) ->
      if Atomic.compare_and_set t.state cur (next_state cur freed_bits)
      then begin
        if t.access land freed_mask = strict_live then
          t.access <- t.access + (strict_freed - strict_live)
      end
      else mark_freed t
  | _ (* Freed *) -> raise (Double_free (describe t))

(* Recycling (type-stable pool allocator): the Freed -> Live CAS is the
   authority — exactly one recycler wins it, so the per-object words are
   reset only by the winner, after the win.  A stale reader racing the
   reset can observe a torn (new state, old uid) combination; that is
   precisely the type-stable-pool semantics the generation counter
   exists to expose, and the generation itself is never torn (it lives
   in the same atomic word as the lifecycle).  The arena slot is not
   touched: it was released (and reset to -1) when the header was
   freed, and the next life re-registers on first publication. *)
let rec recycle t ~uid ~birth_era =
  let cur = Atomic.get t.state in
  if cur land state_mask <> freed_bits then raise (Double_free (describe t))
  else if not (Atomic.compare_and_set t.state cur (next_state cur live_bits))
  then recycle t ~uid ~birth_era
  else begin
    t.uid <- uid;
    if t.access land freed_mask = strict_freed then
      t.access <- t.access - (strict_freed - strict_live);
    t.eras <- pack_eras ~birth:birth_era ~death:death_none;
    set_retired_stamp t 0;
    Atomic.set (orc t) orc_initial
  end

(* Hand the header's arena slot back to its table, exactly once.  Called
   by [Alloc.free] after the Freed transition: at that point no scheme
   protects the object, so the slot may be recycled for a future node.
   (The slot keeps its last occupant until then — type-stable memory.)
   The retire stamp beside it is kept: the free reads it after. *)
let detach_slot t =
  let s = slot t in
  if s >= 0 then begin
    t.slot_word <- t.slot_word land lnot slot_mask;
    t.slot_release <- no_release
  end;
  s

let release_slot t ~tid =
  let release = t.slot_release in
  let s = detach_slot t in
  if s >= 0 then release ~tid s

let pp fmt t =
  let lc =
    match lifecycle t with
    | Live -> "live"
    | Retired -> "retired"
    | Freed -> "freed"
  in
  Format.fprintf fmt "%s[%s gen=%d]" (describe t) lc (generation t)
