(** Split-ordered lock-free resizable hash map (Shalev & Shavit),
    written once against {!Intf.CORE}.

    The whole map is one Michael list sorted by so-key
    ({!Split_order}): every bucket is a dummy node spliced into that
    list, the bucket directory is a never-moving segment table of entry
    links, and growing the table is a single atomic doubling of the
    bucket count — no node moves, nothing is rehashed, and (crucially
    for the reclamation story) a resize retires {e nothing} and, under
    OrcGC, flips no hard-link count: growing under churn adds zero
    reclamation traffic beyond the inserts and deletes themselves.
    Buckets are initialized lazily and recursively: bucket [b]'s dummy
    is inserted by a list insert anchored at [parent b]'s dummy.

    Find, insert and delete are {!Orc_michael_list.Window}, anchored
    at a bucket entry, over the list's node with the so-key as its
    order ([ord]).  So-keys are unique (the hash is a bijection), so
    so-key equality is key equality, and a node stores no key: the
    quiesced [to_list] decodes it from the so-key.  Dummies are
    never marked and never retired (only regular so-keys are ever
    removed), so an entry link, once set, points at a live node until
    [destroy].  Under OrcGC a dummy is kept alive by its entry (count
    from the directory) plus its list predecessor, and dies when
    [destroy] nulls the entries and the one list cascades.

    {!Make} runs on the paper's pass-the-pointer backend (scheme
    "orc"), {!Make_hp} on the hazard-pointer-backend ablation
    ("orc-hp"), and {!Split_map.Make} on any manual scheme through
    {!Manual_core}: one source, three reclamation families.

    The grow policy reads {!Reclaim.Tuning.load_factor} from the
    core's knob record, so the adaptive controller can defer doublings
    under memory pressure.  Keys must lie in
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
  val tuning : t -> Reclaim.Tuning.t
  val set_tuning : t -> Reclaim.Tuning.t -> unit
end

module Impl (O : Intf.CORE with type node = node) = struct
  module W = Window (O)

  type t = {
    dir : node So.dir;
    entry0 : node Link.t; (* bucket 0's entry, materialized at create *)
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

  let mk_null g = O.new_link_v g Link.v_null

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("split_map/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let tp = O.ptr g in
        let tail =
          O.alloc_node_into g tp (fun hdr ->
              { ord = max_int; next = mk_null g; hdr })
        in
        let hp = O.ptr g in
        let head =
          (* bucket 0's dummy: so-key 0, first node of the one list *)
          O.alloc_node_into g hp (fun hdr ->
              {
                ord = So.dummy 0;
                next = O.new_link_v g (O.v_ptr orc tail);
                hdr;
              })
        in
        let dir = So.dir_create () in
        let e0 = So.dir_entry dir ~mk_null g 0 in
        let t =
          {
            dir;
            entry0 = e0;
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
        O.store_v g e0 (O.v_ptr orc head);
        t.probes <- register_metrics t;
        t)

  let restarts t = Atomic.get t.restarts
  let buckets t = Atomic.get t.buckets_a
  let grows t = Atomic.get t.grows

  (* Lazy recursive bucket initialization: the dummy goes in by the
     window's insert-if-absent anchored at the parent's dummy, then one
     CAS publishes it in the entry (idempotent — the dummy for an
     so-key is unique).  The [dnode] handle is reused across levels, so
     initializing a 20-deep ancestor chain costs no extra hazard
     indexes. *)
  let rec get_entry t g b ~prev ~curr ~next ~dnode =
    let e = So.dir_entry t.dir ~mk_null g b in
    if Link.v_is_null (Link.view e) then
      init_bucket t g b e ~prev ~curr ~next ~dnode;
    e

  and init_bucket t g b e ~prev ~curr ~next ~dnode =
    let parent_e = get_entry t g (So.parent b) ~prev ~curr ~next ~dnode in
    let d =
      O.Ptr.node_exn
        (if
           W.insert t.restarts t.orc g parent_e (So.dummy b) ~prev ~curr
             ~next ~into:dnode
         then dnode
         else curr)
    in
    (* d is protected (curr or dnode); publish it in the entry *)
    let ev = Link.view e in
    if Link.v_is_null ev then
      ignore (O.cas_v g e ~expected:ev ~desired:(O.v_ptr t.orc d))

  let check_key key =
    if key < 0 || key > So.max_key then
      invalid_arg "Split_map: key out of range [0, 2^60)"

  (* Size-triggered doubling, checked after successful adds.  One CAS
     per doubling — losers simply observe the new size on their next
     operation. *)
  let maybe_grow t =
    let size = Atomic.get t.buckets_a in
    if size < So.max_buckets then
      let lf = Reclaim.Tuning.load_factor (O.tuning t.orc) in
      if
        Atomic.get t.count > lf * size
        && Atomic.compare_and_set t.buckets_a size (2 * size)
      then Atomic.incr t.grows

  (* The initialized entry of hash [h]'s bucket at the current size. *)
  let entry t g h ~prev ~curr ~next ~dnode =
    get_entry t g
      (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
      ~prev ~curr ~next ~dnode

  (* Each operation's body is a closed function of its guard, so
     [O.with_guard2] runs it without building a closure. *)
  let contains_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g and dnode = O.ptr g in
    let h = So.hash key in
    let e = entry t g h ~prev ~curr ~next ~dnode in
    let ord = So.regular h in
    ignore (W.find t.restarts g e ord ~prev ~curr ~next);
    W.found curr ord

  let add_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g and dnode = O.ptr g in
    let h = So.hash key in
    let e = entry t g h ~prev ~curr ~next ~dnode in
    W.insert t.restarts t.orc g e (So.regular h) ~prev ~curr ~next ~into:dnode

  let remove_in g t key =
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g and dnode = O.ptr g in
    let h = So.hash key in
    let e = entry t g h ~prev ~curr ~next ~dnode in
    W.delete t.restarts g e (So.regular h) ~prev ~curr ~next

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
    match Link.target (Link.get t.entry0) with
    | Some h -> h
    | None -> invalid_arg "Split_map: destroyed"

  (* Quiesced helpers: walk the one list from bucket 0's dummy. *)
  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get n.next) with
      | None -> List.rev acc
      | Some nx ->
          if nx == t.tail then List.rev acc
          else
            let deleted = Link.is_marked (Link.get nx.next) in
            let acc =
              if deleted || So.is_dummy nx.ord then acc
              else So.key_of_regular nx.ord :: acc
            in
            walk acc nx
    in
    List.sort compare (walk [] (head_of t))

  let size t = List.length (to_list t)

  (* Quiesced structural check: so-keys strictly increase along the
     list (so the split ordering held through every grow), the walk
     reaches the tail, and every initialized entry targets an unmarked
     dummy carrying exactly its bucket's so-key. *)
  let invariant t =
    let ok = ref true in
    let rec walk n prev_so =
      if n != t.tail then begin
        if ord_of n <= prev_so then ok := false;
        match Link.target (Link.get n.next) with
        | None -> ok := false (* only the tail terminates the list *)
        | Some nx -> walk nx (ord_of n)
      end
    in
    walk (head_of t) (-1);
    O.with_guard t.orc (fun g ->
        for b = 0 to Atomic.get t.buckets_a - 1 do
          let e = So.dir_entry t.dir ~mk_null g b in
          match Link.target (Link.get e) with
          | None -> () (* lazily uninitialized is fine *)
          | Some d ->
              if ord_of d <> So.dummy b || Link.is_marked (Link.get d.next) then
                ok := false
        done);
    !ok

  let destroy t =
    let roots = ref [ t.tail_root ] in
    So.dir_iter t.dir (fun e -> roots := e :: !roots);
    O.release_roots t.orc !roots

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
  let tuning t = O.tuning t.orc
  let set_tuning t tn = O.set_tuning t.orc tn
end

module Make () = Impl (Orc_core.Orc.Make (N))
module Make_hp () = Impl (Orc_core.Orc.Make_hp (N))
