(** Split-ordered lock-free resizable hash map (Shalev & Shavit),
    written once against {!Intf.CORE}.

    The whole map is one Michael list sorted by so-key
    ({!Split_order}): every bucket is a dummy node spliced into that
    list, the bucket directory is a never-moving segment table of bucket
    anchors, and growing the table is a single atomic doubling of the
    bucket count — no node moves, nothing is rehashed, and (crucially
    for the reclamation story) a resize retires {e nothing} and, under
    OrcGC, flips no hard-link count: growing under churn adds zero
    reclamation traffic beyond the inserts and deletes themselves.
    Buckets are initialized lazily and recursively: bucket [b]'s dummy
    is inserted by a list insert anchored at [parent b]'s anchor.

    Find, insert and delete are {!Orc_michael_list.Window}, anchored
    at a bucket dummy's [next], over the list's node with the so-key as its
    order ([ord]).  So-keys are unique (the hash is a bijection), so
    so-key equality is key equality, and a node stores no key: the
    quiesced [to_list] decodes it from the so-key.  Dummies are never
    marked and never retired (only regular so-keys are ever removed),
    exactly like the Michael list's head sentinel, so the directory
    holds each initialized bucket's {e anchor} — its dummy node, which
    is its own [next] link ({!Orc_michael_list.next_link}) — as a plain
    reference, and a lookup starts from that link the way the Michael
    list starts from the head's: it reads the dummy's link word and
    nothing else of it, and publishes no hazard for the dummy.  The
    directory holds no counts: a dummy is pinned by its list
    predecessor (it is never unlinked, so some live node always links
    it), bucket 0's by [head_root], and all of them die when [destroy]
    drops the two roots and the one list cascades.

    {!Make} runs on the paper's pass-the-pointer backend (scheme
    "orc"), {!Make_hp} on the hazard-pointer-backend ablation
    ("orc-hp"), and {!Split_map.Make} on any manual scheme through
    {!Manual_core}: one source, three reclamation families.

    The directory doubles once the map averages
    {!Reclaim.Tuning.load_factor} keys per bucket.  Keys must lie in
    [[0, Split_order.max_key]]. *)

open Atomicx
open Orc_michael_list
module So = Split_order

let initial_buckets = 2

(** {!Intf.SET} plus map introspection. *)
module type MAP = sig
  include Intf.SET

  val restarts : t -> int
  val buckets : t -> int
  val grows : t -> int
  val invariant : t -> bool
end

module Impl (O : Intf.CORE with type node = node) = struct
  module W = Window (O)

  type t = {
    dir : node So.dir;
        (* bucket b's cell: b's dummy (its own next link), or unset,
           which reads as the tail *)
    head_root : node Link.t; (* keeps bucket 0's dummy, the list head *)
    tail : node; (* sentinel, ord = max_int, never retired *)
    tail_root : node Link.t;
    buckets_a : int Atomic.t; (* current bucket count (power of two) *)
    count : int Atomic.t; (* live regular keys (exact on quiescence) *)
    grows : int Atomic.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
    restarts : int Atomic.t;
    mutable probes : (unit -> int) list;
        (* metrics closures are weakly held by the registry; anchoring
           them here keeps the probes alive exactly as long as the map *)
  }

  let scheme_name = O.name
  let core t = t.orc
  let directory t = t.dir

  let register_metrics t =
    let labels = [ ("map", "split"); ("scheme", O.name) ] in
    let buckets () = Atomic.get t.buckets_a in
    let lf100 () =
      (* observed load factor in hundredths (keys per bucket × 100) *)
      Atomic.get t.count * 100 / max 1 (Atomic.get t.buckets_a)
    in
    let grows () = Atomic.get t.grows in
    let reg = Obs.Metrics.default in
    Obs.Metrics.probe reg ~labels "orcgc_map_buckets" buckets;
    Obs.Metrics.probe reg ~labels "orcgc_map_load_factor" lf100;
    Obs.Metrics.probe reg ~labels ~counter:true "orcgc_map_grows_total" grows;
    [ buckets; lf100; grows ]

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("split_map/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let node ord =
          O.alloc_node_into g (O.ptr g) (fun hdr ->
              { word = 0; arena = O.arena orc; ord; hdr })
        in
        let tail = node max_int in
        (* bucket 0's dummy: so-key 0, first node of the one list *)
        let head = node (So.dummy 0) in
        O.store_v g (next_link head) (O.v_ptr orc tail);
        (* the tail is no bucket's dummy, so it can stand for unset *)
        let dir = So.dir_create ~unset:tail in
        So.dir_set dir 0 head;
        let t =
          {
            dir;
            head_root = O.new_link_v g (O.v_ptr orc head);
            tail;
            tail_root = O.new_link_v g (O.v_ptr orc tail);
            buckets_a = Atomic.make initial_buckets;
            count = Atomic.make 0;
            grows = Atomic.make 0;
            orc;
            alloc;
            restarts = Atomic.make 0;
            probes = [];
          }
        in
        t.probes <- register_metrics t;
        t)

  let restarts t = Atomic.get t.restarts
  let buckets t = Atomic.get t.buckets_a
  let grows t = Atomic.get t.grows

  (* Lazy recursive bucket initialization: the dummy goes in by the
     window's insert-if-absent anchored at the parent's anchor, then a
     plain store publishes it in the directory (idempotent — the dummy
     for an so-key is unique).  A domain that dies between the insert
     and the store leaves the cell unset; the next toucher finds the
     dummy by the same insert-if-absent and stores it.  The [dnode]
     handle is reused across levels, so initializing a 20-deep ancestor
     chain costs no extra hazard indexes. *)
  let rec anchor_of t g b ~prev ~curr ~next ~dnode =
    let a = So.dir_get t.dir b in
    if a != So.dir_unset t.dir then a
    else init_bucket t g b ~prev ~curr ~next ~dnode

  and init_bucket t g b ~prev ~curr ~next ~dnode =
    let parent = anchor_of t g (So.parent b) ~prev ~curr ~next ~dnode in
    let d =
      O.Ptr.node_exn
        (if
           W.insert t.restarts t.orc g (next_link parent) (So.dummy b) ~prev
             ~curr ~next ~into:dnode
         then dnode
         else curr)
    in
    So.dir_set t.dir b d;
    d

  let check_key key =
    if key < 0 || key > So.max_key then
      invalid_arg "Split_map: key out of range [0, 2^60)"

  (* Size-triggered doubling, checked after successful adds.  One CAS
     per doubling — losers simply observe the new size on their next
     operation. *)
  let maybe_grow t =
    let size = Atomic.get t.buckets_a in
    if
      size < So.max_buckets
      && Atomic.get t.count > Reclaim.Tuning.load_factor * size
      && Atomic.compare_and_set t.buckets_a size (2 * size)
    then Atomic.incr t.grows

  (* The anchor link of hash [h]'s bucket at the current size. *)
  let anchor t g h ~prev ~curr ~next ~dnode =
    next_link
      (anchor_of t g
         (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
         ~prev ~curr ~next ~dnode)

  (* Each operation's body is a closed function of its guard, so
     [O.with_guard2] runs it without building a closure. *)
  let contains_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g and dnode = O.ptr g in
    let h = So.hash key in
    let a = anchor t g h ~prev ~curr ~next ~dnode in
    let ord = So.regular h in
    ignore (W.find t.restarts g a ord ~prev ~curr ~next);
    W.found curr ord

  let add_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g and dnode = O.ptr g in
    let h = So.hash key in
    let a = anchor t g h ~prev ~curr ~next ~dnode in
    W.insert t.restarts t.orc g a (So.regular h) ~prev ~curr ~next ~into:dnode

  let remove_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g and dnode = O.ptr g in
    let h = So.hash key in
    let a = anchor t g h ~prev ~curr ~next ~dnode in
    W.delete t.restarts g a (So.regular h) ~prev ~curr ~next

  let contains t key =
    check_key key;
    O.with_guard2 t.orc contains_in t key

  let add t key =
    check_key key;
    let r = O.with_guard2 t.orc add_in t key in
    if r then begin
      Atomic.incr t.count;
      maybe_grow t
    end;
    r

  let remove t key =
    check_key key;
    let r = O.with_guard2 t.orc remove_in t key in
    if r then Atomic.decr t.count;
    r

  let head_of t =
    match Link.target (Link.get t.head_root) with
    | Some h -> h
    | None -> invalid_arg "Split_map: destroyed"

  (* Quiesced helpers: walk the one list from bucket 0's dummy. *)
  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get (next_link n)) with
      | None -> List.rev acc
      | Some nx ->
          if nx == t.tail then List.rev acc
          else
            let deleted = Link.is_marked (Link.get (next_link nx)) in
            let acc =
              if deleted || So.is_dummy nx.ord then acc
              else So.key_of_regular nx.ord :: acc
            in
            walk acc nx
    in
    List.sort compare (walk [] (head_of t))

  let size t = List.length (to_list t)

  (* Quiesced structural check, one walk of the list: so-keys strictly
     increase (so the split ordering held through every grow), the
     walk reaches the tail, every dummy is unmarked, and every set
     directory cell is physically the dummy carrying its bucket's
     so-key.  The walk matches each dummy against its bucket's cell;
     since dummy so-keys are unique, the cells set below the current
     size must all have been matched. *)
  let invariant t =
    let size = Atomic.get t.buckets_a in
    let ok = ref true and matched = ref 0 in
    let rec walk n prev_so =
      if n != t.tail then begin
        let so = ord_of n in
        if so <= prev_so then ok := false;
        if So.is_dummy so then begin
          if Link.is_marked (Link.get (next_link n)) then ok := false;
          let b = So.rev60 (so lsr 1) in
          if b < size && So.dir_get t.dir b == n then incr matched
        end;
        match Link.target (Link.get (next_link n)) with
        | None -> ok := false (* only the tail terminates the list *)
        | Some nx -> walk nx so
      end
    in
    walk (head_of t) (-1);
    let set = ref 0 in
    for b = 0 to size - 1 do
      if So.dir_get t.dir b != So.dir_unset t.dir then incr set
    done;
    !ok && !set = !matched

  let destroy t = O.release_roots t.orc [ t.head_root; t.tail_root ]

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end

module Make () = Impl (Orc_core.Orc.Make (N))
module Make_hp () = Impl (Orc_core.Orc.Make_hp (N))
