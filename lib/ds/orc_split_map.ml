(** Split-ordered resizable hash map with OrcGC — the automatic twin
    of {!Split_map}, and the structure where split ordering and OrcGC
    compose best: a resize moves no node, so it flips no hard-link
    count and retires nothing; growing under churn adds {e zero}
    reclamation traffic beyond the inserts and deletes themselves.

    Directory entry links are orc links, so a bucket's dummy is kept
    alive by its entry (count from the directory) plus its list
    predecessor — dummies die only at [destroy], when the entries are
    nulled and the one list cascades.

    The core is a functor over the orc backend so the pass-the-pointer
    instance ({!Make}, scheme "orc") and the hazard-pointer-backend
    ablation ({!Make_hp}, scheme "orc-hp") share every line of map
    logic. *)

open Atomicx
module So = Split_order

let initial_buckets = Split_map.initial_buckets

type node = { key : int; so : int; next : node Link.t; hdr : Memdom.Hdr.t }

module N = struct
  type t = node

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

(** What the twins expose: {!Intf.SET} plus map introspection. *)
module type MAP = sig
  include Intf.SET

  val restarts : t -> int
  val buckets : t -> int
  val grows : t -> int
  val invariant : t -> bool
  val tuning : t -> Reclaim.Tuning.t
  val set_tuning : t -> Reclaim.Tuning.t -> unit
end

(** The orc surface the map needs — satisfied by both
    [Orc_core.Orc.Make (N)] and [Orc_core.Orc_hp.Make (N)]. *)
module type CORE = sig
  type t
  type guard

  module Ptr : sig
    type t

    val view : t -> node Link.view
    val node_exn : t -> node
    val is_marked : t -> bool
    val retag_v : t -> node Link.view -> unit
  end

  val name : string

  val create : ?max_hps:int -> ?sink:Obs.Sink.t -> Memdom.Alloc.t -> t

  val with_guard : t -> (guard -> 'a) -> 'a
  val ptr : guard -> Ptr.t
  val load : guard -> node Link.t -> Ptr.t -> unit
  val assign : guard -> Ptr.t -> Ptr.t -> unit
  val advance : guard -> Ptr.t -> Ptr.t -> Ptr.t -> unit
  val alloc_node_into : guard -> Ptr.t -> (Memdom.Hdr.t -> node) -> node
  val new_link_v : guard -> node Link.view -> node Link.t
  val store_v : guard -> node Link.t -> node Link.view -> unit

  val cas_v :
    guard -> node Link.t ->
    expected:node Link.view -> desired:node Link.view -> bool

  val unlink_v :
    guard -> node Link.t -> Ptr.t -> desired:node Link.view -> bool

  val v_ptr : t -> node -> node Link.view
  val unreclaimed : t -> int
  val flush : t -> unit
  val tuning : t -> Reclaim.Tuning.t
  val set_tuning : t -> Reclaim.Tuning.t -> unit
end

module Impl (O : CORE) = struct
  type nonrec node = node

  type t = {
    dir : node So.dir;
    entry0 : node Link.t; (* bucket 0's entry, materialized at create *)
    tail : node;
    tail_root : node Link.t;
    buckets_a : int Atomic.t;
    count : int Atomic.t;
    grows : int Atomic.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
    restarts : int Atomic.t;
    mutable probes : (unit -> int) list; (* keep-alive, see Split_map *)
  }

  let scheme_name = O.name

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
    let labels = [ ("map", "split"); ("scheme", O.name) ] in
    let buckets () = Atomic.get t.buckets_a in
    let lf100 () =
      Atomic.get t.count * 100 / max 1 (Atomic.get t.buckets_a)
    in
    let grows () = Atomic.get t.grows in
    let reg = Obs.Metrics.default in
    Obs.Metrics.probe reg ~labels "orcgc_map_buckets" buckets;
    Obs.Metrics.probe reg ~labels "orcgc_map_load_factor" lf100;
    Obs.Metrics.probe reg ~labels ~counter:true "orcgc_map_grows_total" grows;
    [ buckets; lf100; grows ]

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "orc_split_map" in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let tp = O.ptr g in
        let tail =
          O.alloc_node_into g tp (fun hdr ->
              {
                key = max_int;
                so = max_int;
                next = O.new_link_v g Link.v_null;
                hdr;
              })
        in
        let hp = O.ptr g in
        let head =
          O.alloc_node_into g hp (fun hdr ->
              {
                key = 0;
                so = So.dummy 0;
                next = O.new_link_v g (O.v_ptr orc tail);
                hdr;
              })
        in
        let dir = So.dir_create () in
        let e0 =
          So.dir_entry dir ~mk_null:(fun () -> O.new_link_v g Link.v_null) 0
        in
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

  (* Michael window-find from entry [e] by so-key; same handle
     discipline as Orc_michael_list.find. *)
  let rec find_from t g e so ~prev ~curr ~next =
    let prev_link = ref e in
    O.load g !prev_link curr;
    let restart () =
      Atomic.incr t.restarts;
      find_from t g e so ~prev ~curr ~next
    in
    let rec loop () =
      let c = O.Ptr.node_exn curr in
      O.load g (next_of c) next;
      if not (Link.view_eq (Link.view !prev_link) (O.Ptr.view curr)) then
        restart ()
      else if O.Ptr.is_marked next then begin
        let unmarked =
          Link.v_after (O.Ptr.view curr) (Link.v_clean (O.Ptr.view next))
        in
        if O.cas_v g !prev_link ~expected:(O.Ptr.view curr) ~desired:unmarked
        then begin
          O.assign g curr next;
          O.Ptr.retag_v curr unmarked;
          loop ()
        end
        else restart ()
      end
      else if so_of c >= so then (so_of c = so, !prev_link)
      else begin
        O.advance g prev curr next;
        prev_link := next_of c;
        loop ()
      end
    in
    loop ()

  (* Lazy recursive bucket initialization: the dummy goes in by a list
     insert anchored at the parent's dummy, then one CAS publishes it
     in the entry (idempotent — the dummy for an so-key is unique).
     The [dnode] handle is reused across levels, so initializing a
     20-deep ancestor chain costs no extra hazard indexes. *)
  let rec get_entry t g b ~prev ~curr ~next ~dnode =
    let e =
      So.dir_entry t.dir ~mk_null:(fun () -> O.new_link_v g Link.v_null) b
    in
    if Link.v_is_null (Link.view e) then
      init_bucket t g b e ~prev ~curr ~next ~dnode;
    e

  and init_bucket t g b e ~prev ~curr ~next ~dnode =
    let parent_e = get_entry t g (So.parent b) ~prev ~curr ~next ~dnode in
    let so = So.dummy b in
    let rec loop () =
      let found, prev_link = find_from t g parent_e so ~prev ~curr ~next in
      if found then O.Ptr.node_exn curr
      else begin
        let n =
          O.alloc_node_into g dnode (fun hdr ->
              { key = b; so; next = O.new_link_v g Link.v_null; hdr })
        in
        O.store_v g n.next (O.Ptr.view curr);
        if
          O.cas_v g prev_link ~expected:(O.Ptr.view curr)
            ~desired:(O.v_ptr t.orc n)
        then n
        else begin
          Atomic.incr t.restarts;
          loop ()
        end
      end
    in
    let d = loop () in
    (* d is protected (curr or dnode); publish it in the entry *)
    let ev = Link.view e in
    if Link.v_is_null ev then
      ignore (O.cas_v g e ~expected:ev ~desired:(O.v_ptr t.orc d))

  let check_key key =
    if key < 0 || key > So.max_key then
      invalid_arg "Orc_split_map: key out of range [0, 2^60)"

  let maybe_grow t =
    let size = Atomic.get t.buckets_a in
    if size < So.max_buckets then
      let lf = Reclaim.Tuning.load_factor (O.tuning t.orc) in
      if
        Atomic.get t.count > lf * size
        && Atomic.compare_and_set t.buckets_a size (2 * size)
      then Atomic.incr t.grows

  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let prev = O.ptr g
        and curr = O.ptr g
        and next = O.ptr g
        and dnode = O.ptr g in
        let h = So.hash key in
        let e =
          get_entry t g
            (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
            ~prev ~curr ~next ~dnode
        in
        fst (find_from t g e (So.regular h) ~prev ~curr ~next))

  let add t key =
    check_key key;
    let r =
      O.with_guard t.orc @@ fun g ->
      let prev = O.ptr g
      and curr = O.ptr g
      and next = O.ptr g
      and dnode = O.ptr g in
      let h = So.hash key in
      let so = So.regular h in
      let e =
        get_entry t g
          (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
          ~prev ~curr ~next ~dnode
      in
      let node = ref None in
      let rec loop () =
        let found, prev_link = find_from t g e so ~prev ~curr ~next in
        if found then false
        else begin
          let n =
            match !node with
            | Some n -> n
            | None ->
                let n =
                  O.alloc_node_into g dnode (fun hdr ->
                      { key; so; next = O.new_link_v g Link.v_null; hdr })
                in
                node := Some n;
                n
          in
          O.store_v g n.next (O.Ptr.view curr);
          if
            O.cas_v g prev_link ~expected:(O.Ptr.view curr)
              ~desired:(O.v_ptr t.orc n)
          then true
          else begin
            Atomic.incr t.restarts;
            loop ()
          end
        end
      in
      loop ()
    in
    if r then begin
      Atomic.incr t.count;
      maybe_grow t
    end;
    r

  let remove t key =
    check_key key;
    let r =
      O.with_guard t.orc @@ fun g ->
      let prev = O.ptr g
      and curr = O.ptr g
      and next = O.ptr g
      and dnode = O.ptr g in
      let h = So.hash key in
      let so = So.regular h in
      let e =
        get_entry t g
          (So.bucket_of ~hash:h ~size:(Atomic.get t.buckets_a))
          ~prev ~curr ~next ~dnode
      in
      let rec loop () =
        let found, prev_link = find_from t g e so ~prev ~curr ~next in
        if not found then false
        else begin
          let c = O.Ptr.node_exn curr in
          O.load g (next_of c) next;
          if O.Ptr.is_marked next then begin
            Atomic.incr t.restarts;
            loop ()
          end
          else begin
            (* a found node precedes the tail — next has a target *)
            ignore (O.Ptr.node_exn next);
            if
              O.cas_v g (next_of c) ~expected:(O.Ptr.view next)
                ~desired:(Link.v_mark (O.Ptr.view next))
            then begin
              (* physical unlink, which also ends [curr]'s protection: the
                 victim is freed here unless another thread protects it *)
              if
                not
                  (O.unlink_v g prev_link curr
                     ~desired:(Link.v_clean (O.Ptr.view next)))
              then ignore (find_from t g e so ~prev ~curr ~next);
              true
            end
            else begin
              Atomic.incr t.restarts;
              loop ()
            end
          end
        end
      in
      loop ()
    in
    if r then Atomic.decr t.count;
    r

  let head_of t =
    match Link.target (Link.get t.entry0) with
    | Some h -> h
    | None -> invalid_arg "Orc_split_map: destroyed"

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

  let invariant t =
    let ok = ref true in
    let rec walk n prev_so =
      if n != t.tail then begin
        if so_of n <= prev_so then ok := false;
        match Link.target (Link.get n.next) with
        | None -> ok := false
        | Some nx -> walk nx (so_of n)
      end
    in
    walk (head_of t) (-1);
    So.dir_iter t.dir (fun e ->
        match Link.target (Link.get e) with
        | None -> ()
        | Some d ->
            if not (So.is_dummy (so_of d)) || Link.is_marked (Link.get d.next)
            then ok := false);
    !ok

  (* Null every entry and the tail root: each store drops one hard
     link, and the one list cascades from bucket 0's dummy. *)
  let destroy t =
    O.with_guard t.orc (fun g ->
        So.dir_iter t.dir (fun e ->
            if not (Link.v_is_null (Link.view e)) then
              O.store_v g e Link.v_null);
        O.store_v g t.tail_root Link.v_null)

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
  let tuning t = O.tuning t.orc
  let set_tuning t tn = O.set_tuning t.orc tn
end

module Make () = Impl (Orc_core.Orc.Make (N))
module Make_hp () = Impl (Orc_core.Orc_hp.Make (N))
