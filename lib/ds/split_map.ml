(** Split-ordered lock-free hash map (Shalev & Shavit), parameterized
    by a manual reclamation scheme — the resizable successor of
    {!Hash_map}.

    The whole map is one Michael list sorted by so-key
    ({!Split_order}): every bucket is a dummy node spliced into that
    list, the bucket directory is a never-moving segment table of entry
    links, and growing the table is a single atomic doubling of the
    bucket count — no node moves, nothing is rehashed, and (crucially
    for the reclamation story) a resize retires {e nothing}.  Buckets
    are initialized lazily and recursively: bucket [b]'s dummy is
    inserted by a list insert anchored at [parent b]'s dummy.

    Traversal, unlinking and retirement are exactly {!Michael_list}'s
    view-plane window search — hazard indexes 0 = curr, 1 = next,
    2 = prev — just anchored at a bucket entry and ordered by so-key
    instead of key.  Dummies are never marked and never retired (only
    regular so-keys are ever removed), so an entry link, once set,
    points at a live node forever.

    The grow policy reads {!Reclaim.Tuning.load_factor} from the
    scheme's knob record, so the adaptive controller can defer
    doublings under memory pressure.  Keys must lie in
    [[0, Split_order.max_key]]. *)

open Atomicx
module So = Split_order

let initial_buckets = 2

module Make (R : Reclaim.Scheme_intf.MAKER) = struct
  type node = { key : int; so : int; next : node Link.t; hdr : Memdom.Hdr.t }

  module S = R (struct
    type t = node

    let hdr n = n.hdr
  end)

  type t = {
    dir : node So.dir;
    tail : node; (* sentinel, so = max_int, never retired *)
    buckets_a : int Atomic.t; (* current bucket count (power of two) *)
    count : int Atomic.t; (* live regular keys (exact on quiescence) *)
    grows : int Atomic.t;
    scheme : S.t;
    alloc : Memdom.Alloc.t;
    arena : node Link.arena;
    restarts : int Atomic.t;
    mutable probes : (unit -> int) list;
        (* metrics closures are weakly held by the registry; anchoring
           them here keeps the probes alive exactly as long as the map *)
  }

  let scheme_name = S.name

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let so_of n =
    Memdom.Hdr.check_access n.hdr;
    n.so

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let register_metrics t =
    let labels = [ ("map", "split"); ("scheme", S.name) ] in
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
    let alloc = Memdom.Alloc.create ~mode "split_map" in
    let scheme = S.create ~max_hps:4 alloc in
    let arena = Memdom.Handle.arena ~hdr:(fun n -> n.hdr) () in
    let tail =
      {
        key = max_int;
        so = max_int;
        next = Link.make_in arena Link.Null;
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    let head =
      (* bucket 0's dummy: so = 0, first node of the one list *)
      {
        key = 0;
        so = So.dummy 0;
        next = Link.make_in arena (Link.Ptr tail);
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    let t =
      {
        dir = So.dir_create ();
        tail;
        buckets_a = Atomic.make initial_buckets;
        count = Atomic.make 0;
        grows = Atomic.make 0;
        scheme;
        alloc;
        arena;
        restarts = Atomic.make 0;
        probes = [];
      }
    in
    let e0 = So.dir_entry t.dir ~mk_null:(fun () -> Link.make_in arena Link.Null) 0 in
    Link.set e0 (Link.Ptr head);
    t.probes <- register_metrics t;
    t

  let restarts t = Atomic.get t.restarts
  let buckets t = Atomic.get t.buckets_a
  let grows t = Atomic.get t.grows
  let mk_null t () = Link.make_in t.arena Link.Null

  (* Michael window-find from bucket entry [e], ordered by so-key.  On
     [true] curr (protected at hazard 0) holds [so]; so-keys are unique
     (bijective hash), so so-equality is key-equality. *)
  let rec find_from t ~tid e so =
    let prev_link = ref e in
    let curr_v = ref (S.get_protected_v t.scheme ~tid ~idx:0 !prev_link) in
    let restart () =
      Atomic.incr t.restarts;
      find_from t ~tid e so
    in
    let rec loop () =
      let curr = Link.v_target_exn !prev_link !curr_v in
      let next_v = S.get_protected_v t.scheme ~tid ~idx:1 (next_of curr) in
      if not (Link.view_eq (Link.view !prev_link) !curr_v) then restart ()
      else if Link.v_is_marked next_v then begin
        (* the word the CAS installs: the window keeps validating
           against it *)
        let unmarked = Link.v_after !curr_v (Link.v_clean next_v) in
        if Link.cas_v !prev_link !curr_v unmarked then begin
          S.retire t.scheme ~tid curr;
          curr_v := unmarked;
          S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
          loop ()
        end
        else restart ()
      end
      else if so_of curr >= so then (so_of curr = so, !prev_link, !curr_v)
      else begin
        S.copy_protection t.scheme ~tid ~src:0 ~dst:2;
        prev_link := next_of curr;
        curr_v := next_v;
        S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
        loop ()
      end
    in
    loop ()

  (* Bucket entry, with lazy recursive initialization: insert the
     dummy via a plain list insert anchored at the parent's dummy,
     then publish it in the entry (idempotent: the dummy for a given
     so-key is unique, so a raced publish installs the same node). *)
  let rec get_entry t ~tid b =
    let e = So.dir_entry t.dir ~mk_null:(mk_null t) b in
    if Link.v_is_null (Link.view e) then init_bucket t ~tid b e;
    e

  and init_bucket t ~tid b e =
    let parent_e = get_entry t ~tid (So.parent b) in
    let so = So.dummy b in
    let rec loop () =
      let found, prev_link, curr_v = find_from t ~tid parent_e so in
      if found then Link.v_target_exn prev_link curr_v
      else
        let n =
          {
            key = b;
            so;
            next = Link.make_of_view t.arena curr_v;
            hdr = Memdom.Alloc.hdr t.alloc ();
          }
        in
        if Link.cas_v prev_link curr_v (Link.v_ptr_in t.arena n) then n
        else begin
          (* lost the race: the fresh dummy was never published *)
          Memdom.Alloc.free t.alloc n.hdr;
          Atomic.incr t.restarts;
          loop ()
        end
    in
    let d = loop () in
    let ev = Link.view e in
    if Link.v_is_null ev then
      ignore (Link.cas_v e ev (Link.v_ptr_in t.arena d))

  let check_key key =
    if key < 0 || key > So.max_key then
      invalid_arg "Split_map: key out of range [0, 2^60)"

  (* Size-triggered doubling, checked after successful adds.  The load
     factor is the scheme's tuning knob, so the adaptive controller
     can defer growth under memory pressure.  One CAS per doubling —
     losers simply observe the new size on their next operation. *)
  let maybe_grow t =
    let size = Atomic.get t.buckets_a in
    if size < So.max_buckets then
      let lf = Reclaim.Tuning.load_factor (S.tuning t.scheme) in
      if
        Atomic.get t.count > lf * size
        && Atomic.compare_and_set t.buckets_a size (2 * size)
      then Atomic.incr t.grows

  let contains t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let h = So.hash key in
    let e =
      get_entry t ~tid (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
    in
    let found, _, _ = find_from t ~tid e (So.regular h) in
    S.end_op t.scheme ~tid;
    found

  let add t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let h = So.hash key in
    let so = So.regular h in
    let e =
      get_entry t ~tid (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
    in
    let rec loop () =
      let found, prev_link, curr_v = find_from t ~tid e so in
      if found then false
      else
        let n =
          {
            key;
            so;
            next = Link.make_of_view t.arena curr_v;
            hdr = Memdom.Alloc.hdr t.alloc ();
          }
        in
        if Link.cas_v prev_link curr_v (Link.v_ptr_in t.arena n) then true
        else begin
          Memdom.Alloc.free t.alloc n.hdr;
          Atomic.incr t.restarts;
          loop ()
        end
    in
    let r = loop () in
    S.end_op t.scheme ~tid;
    if r then begin
      Atomic.incr t.count;
      maybe_grow t
    end;
    r

  let remove t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let h = So.hash key in
    let so = So.regular h in
    let e =
      get_entry t ~tid (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
    in
    let rec loop () =
      let found, prev_link, curr_v = find_from t ~tid e so in
      if not found then false
      else
        let curr = Link.v_target_exn prev_link curr_v in
        let next_v = S.get_protected_v t.scheme ~tid ~idx:1 (next_of curr) in
        if Link.v_is_marked next_v then begin
          Atomic.incr t.restarts;
          loop ()
        end
        else begin
          (* a found node precedes the tail, so next has a target *)
          assert (Link.v_has_target next_v);
          let marked = Link.v_mark next_v in
          if Link.cas_v (next_of curr) next_v marked then begin
            let unmarked = Link.v_clean next_v in
            if Link.cas_v prev_link curr_v unmarked then
              S.retire t.scheme ~tid curr
            else ignore (find_from t ~tid e so);
            true
          end
          else begin
            Atomic.incr t.restarts;
            loop ()
          end
        end
    in
    let r = loop () in
    S.end_op t.scheme ~tid;
    if r then Atomic.decr t.count;
    r

  let head_of t =
    match
      Link.target (Link.get (So.dir_entry t.dir ~mk_null:(mk_null t) 0))
    with
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
              if deleted || So.is_dummy nx.so then acc else key_of nx :: acc
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
        if so_of n <= prev_so then ok := false;
        match Link.target (Link.get n.next) with
        | None -> ok := false (* only the tail terminates the list *)
        | Some nx -> walk nx (so_of n)
      end
    in
    walk (head_of t) (-1);
    for b = 0 to Atomic.get t.buckets_a - 1 do
      let e = So.dir_entry t.dir ~mk_null:(mk_null t) b in
      match Link.target (Link.get e) with
      | None -> () (* lazily uninitialized is fine *)
      | Some d ->
          if
            so_of d <> So.dummy b
            || Link.is_marked (Link.get d.next)
          then ok := false
    done;
    !ok

  let destroy t =
    let rec free_chain n =
      let nxt = Link.target (Link.get n.next) in
      Memdom.Alloc.free t.alloc n.hdr;
      match nxt with Some nx -> free_chain nx | None -> ()
    in
    free_chain (head_of t);
    So.dir_iter t.dir (fun e -> Link.set e Link.Null);
    S.flush t.scheme

  let unreclaimed t = S.unreclaimed t.scheme
  let stats t = S.stats t.scheme
  let flush t = S.flush t.scheme
  let alloc t = t.alloc
  let tuning t = S.tuning t.scheme
  let set_tuning t tn = S.set_tuning t.scheme tn
end
