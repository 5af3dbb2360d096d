(** Lock-free skip list base (Herlihy & Shavit [15], after Fraser), over
    an automatic core — instantiated twice:

    - [poison = false]: **HS-skip**.  [contains] descends from the top
      level without ever restarting, walking straight *through* marked
      nodes; removed nodes keep their forward pointers and must stay
      traversable (the paper's obstacle 3: a half-removed node can even
      be re-encountered).  Under OrcGC those frozen forward pointers are
      hard links, so removed nodes can form key-bounded chains — the
      memory-footprint problem §5 measures (19 GB vs <1 GB in the paper).

    - [poison = true]: **CRF-skip**, the paper's new design.  Once a
      victim is unlinked from every level — after which it can never be
      re-linked, because the edge to a victim is the very word, write
      stamp included, that both a stale insert and the snip must CAS —
      the victim's forward pointers are poisoned, isolating it
      completely.  Searches restart when they step on poison (contains
      drops to lock-free), and the severed links keep unreclaimed
      memory linear.

    Marks live on the *victim's own* forward pointers; edges pointing at
    a node are only ever clean or poisoned.  Three rules keep a poisoned
    node from ever being linked:

    - [find] never CASes a marked edge: a marked first read at a level
      means the level's pred is being removed, so [find] restarts
      rather than pass the marked word as the expected value of a snip
      or insert, which would clear the mark and resurrect the pred;
    - [add] never links a node in front of a removed node with the same
      key (a stale upper-level window can offer one), so each level
      holds at most one node per key and [find] reaches every node it
      must snip;
    - the victim's adder may still be linking upper levels after the
      remover's [find] has unlinked it, so neither side poisons alone:
      see [settle]. *)

open Atomicx

type node = {
  key : int;
  height : int; (* number of levels this node participates in *)
  next : node Link.t array; (* length = height *)
  hdr : Memdom.Hdr.t;
  settled : int Atomic.t; (* CRF isolation hand-off, see [settle] *)
}

module N = struct
  type t = node

  let hdr n = n.hdr
  let iter_links n f = Array.iter f n.next
end

(** What the §5 pinned-reader probe needs of a skip list: its core and
    the level-0 anchor (the head sentinel's bottom [next]). *)
module type S = sig
  include Intf.SET
  module O : Intf.CORE with type node = node

  val core : t -> O.t
  val anchor : t -> node Link.t
end

module Impl
    (Cfg : sig
      val poison : bool
      val max_level : int (* highest level index; levels are 0..max_level *)
    end)
    (O : Intf.CORE with type node = node) =
struct
  open Intf.Fresh (O)

  module O = O

  type t = {
    head : node;
    tail : node;
    head_root : node Link.t;
    tail_root : node Link.t;
    rngs : Rng.t array; (* per-tid level generators *)
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = O.name
  let levels = Cfg.max_level + 1

  let core t = t.orc
  let anchor t = t.head.next.(0)

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let next_link n level =
    Memdom.Hdr.check_access n.hdr;
    n.next.(level)

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc =
      Memdom.Alloc.create ~mode
        ((if Cfg.poison then "crf_skiplist/" else "hs_skiplist/") ^ O.name)
    in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let sentinel key next =
          alloc_into g (O.ptr g) (fun hdr ->
              {
                key;
                height = levels;
                next = Array.init levels (fun _ -> O.new_link_v g next);
                hdr;
                settled = Atomic.make 0;
              })
        in
        let tail = sentinel max_int Link.v_null in
        let head = sentinel min_int (O.v_ptr orc tail) in
        {
          head;
          tail;
          head_root = O.new_link_v g (O.v_ptr orc head);
          tail_root = O.new_link_v g (O.v_ptr orc tail);
          rngs = Array.init Registry.max_threads (fun i -> Rng.create (i + 1));
          orc;
          alloc;
        })

  (* geometric with p = 1/2, capped at the top level *)
  let random_height t =
    let rng = t.rngs.(Registry.tid ()) in
    let rec grow h = if h < levels && Rng.bool rng then grow (h + 1) else h in
    grow 1

  let poisoned p = Link.v_is_poison (O.Ptr.view p)

  (* Guard-scoped working set for one operation. *)
  type cursor = {
    preds : O.Ptr.t array;
    succs : O.Ptr.t array;
    pred : O.Ptr.t;
    curr : O.Ptr.t;
    succ : O.Ptr.t;
  }

  let cursor g =
    {
      preds = Array.init levels (fun _ -> O.ptr g);
      succs = Array.init levels (fun _ -> O.ptr g);
      pred = O.ptr g;
      curr = O.ptr g;
      succ = O.ptr g;
    }

  (* find: locate the window (preds, succs) around [key] at every level,
     snipping marked nodes from the path as encountered.  Restarts on a
     failed snip, a marked first edge (its pred is being removed, and
     the remover marks top-down, so the restart snips that pred at the
     levels above) or (CRF) a poisoned edge.  Every step is a top-level
     function taking its state as arguments, so a find builds no
     closure; a restart is a call to [find]. *)
  let rec find t g key cu =
    O.load g t.head_root cu.pred;
    find_level t g key cu Cfg.max_level

  and find_level t g key cu level =
    O.load g (next_link (O.Ptr.node_exn cu.pred) level) cu.curr;
    if poisoned cu.curr || O.Ptr.is_marked cu.curr then find t g key cu
    else find_step t g key cu level

  and find_step t g key cu level =
    let c = O.Ptr.node_exn cu.curr in
    O.load g (next_link c level) cu.succ;
    if poisoned cu.succ then find t g key cu
    else if O.Ptr.is_marked cu.succ then begin
      (* c is logically deleted: snip it from this level *)
      let desired =
        Link.v_after (O.Ptr.view cu.curr) (Link.v_clean (O.Ptr.view cu.succ))
      in
      if
        O.cas_v g
          (next_link (O.Ptr.node_exn cu.pred) level)
          ~expected:(O.Ptr.view cu.curr) ~desired
      then begin
        O.assign g cu.curr cu.succ;
        O.Ptr.retag_v cu.curr desired;
        find_step t g key cu level
      end
      else find t g key cu
    end
    else if key_of c < key then begin
      O.assign g cu.pred cu.curr;
      O.assign g cu.curr cu.succ;
      find_step t g key cu level
    end
    else begin
      O.assign g cu.preds.(level) cu.pred;
      O.assign g cu.succs.(level) cu.curr;
      if level > 0 then find_level t g key cu (level - 1)
      else key_of (O.Ptr.node_exn cu.succs.(0)) = key
    end

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Skiplist: key out of range"

  (* Poison the victim's forward pointers (CRF only).  Caller guarantees
     the victim is unlinked from every level, which is permanent. *)
  let isolate g victim =
    for i = 0 to victim.height - 1 do
      O.store_v g victim.next.(i) Link.v_poison
    done

  (* CRF isolation hand-off.  Poisoning is safe only once no level can
     link [n] again, but [n]'s adder may still be linking an upper level
     after the remover's [find] has passed it.  Each side calls [settle]
     once: the adder after it stops linking, the remover after marking
     [n] at every level.  The second caller runs [find] — every level
     of [n] is marked and no new link can appear, so it unlinks [n]
     everywhere — then poisons. *)
  let settle t g key cu n =
    if Atomic.fetch_and_add n.settled 1 = 1 then begin
      ignore (find t g key cu);
      isolate g n
    end

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let cu = cursor g in
    let height = random_height t in
    let np = O.ptr g in
    let node = ref None in
    let rec loop () =
      if find t g key cu then false
      else begin
        let n =
          match !node with
          | Some n ->
              (* refresh forward pointers to the new window *)
              for i = 0 to height - 1 do
                O.store_v g n.next.(i) (O.Ptr.view cu.succs.(i))
              done;
              n
          | None ->
              let n =
                alloc_into g np (fun hdr ->
                    {
                      key;
                      height;
                      next =
                        Array.init height (fun i ->
                            O.new_link_v g (O.Ptr.view cu.succs.(i)));
                      hdr;
                      settled = Atomic.make 0;
                    })
              in
              node := Some n;
              n
        in
        if
          O.cas_v g
            (next_link (O.Ptr.node_exn cu.preds.(0)) 0)
            ~expected:(O.Ptr.view cu.succs.(0)) ~desired:(O.v_ptr t.orc n)
        then begin
          (* bottom level linked: the node is in the set; now build the
             express lanes *)
          let rec link level =
            if level < height then begin
              let own = Link.view n.next.(level) in
              (* a marked own edge means a concurrent remove: stop *)
              if not (Link.v_is_marked own || Link.v_is_poison own) then begin
                let sv = O.Ptr.view cu.succs.(level) in
                let s = O.Ptr.node_exn cu.succs.(level) in
                (* A successor with our key is a removed node still linked
                   at this level.  Linking in front of it would hide it
                   from every later [find], which stops at the first key
                   >= ours, so it could be poisoned while linked: refresh
                   the window instead, which snips it. *)
                let linked =
                  key_of s <> key
                  && (Link.v_same own sv
                     || O.cas_v g n.next.(level) ~expected:own ~desired:sv)
                  && O.cas_v g
                       (next_link (O.Ptr.node_exn cu.preds.(level)) level)
                       ~expected:(O.Ptr.view cu.succs.(level))
                       ~desired:(O.v_ptr t.orc n)
                in
                if linked then link (level + 1)
                else if find t g key cu then
                  (* window moved: retry this level against the new one *)
                  link level
                (* else: node already removed, stop linking *)
              end
            end
          in
          link 1;
          if Cfg.poison then settle t g key cu n;
          true
        end
        else loop ()
      end
    in
    loop ()

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let cu = cursor g in
    let tmp = O.ptr g in
    if not (find t g key cu) then false
    else begin
      let victim = O.Ptr.node_exn cu.succs.(0) in
      (* mark the upper levels, top down *)
      for level = victim.height - 1 downto 1 do
        let rec mark () =
          O.load g victim.next.(level) tmp;
          if not (O.Ptr.is_marked tmp || poisoned tmp) then
            if
              not
                (O.cas_v g victim.next.(level) ~expected:(O.Ptr.view tmp)
                   ~desired:(Link.v_mark (O.Ptr.view tmp)))
            then mark ()
        in
        mark ()
      done;
      (* bottom level: the linearization point *)
      let rec bottom () =
        O.load g victim.next.(0) tmp;
        if O.Ptr.is_marked tmp || poisoned tmp then false
          (* another remover won *)
        else if
          O.cas_v g victim.next.(0) ~expected:(O.Ptr.view tmp)
            ~desired:(Link.v_mark (O.Ptr.view tmp))
        then begin
          (* unlink everywhere (find restarts internally until clean);
             CRF defers that to whichever of adder and remover settles
             last *)
          if Cfg.poison then settle t g key cu victim
          else ignore (find t g key cu);
          true
        end
        else bottom ()
      in
      bottom ()
    end

  (* HS contains: top-down descent, never restarts, walks through marked
     nodes.  CRF contains: same but restarts from scratch on poison.
     The descent is top-level recursion like [find], and the body runs
     under [O.with_guard2], so a lookup allocates nothing. *)
  let rec search g t key ~pred ~curr ~succ =
    O.load g t.head_root pred;
    search_level g t key ~pred ~curr ~succ Cfg.max_level

  and search_level g t key ~pred ~curr ~succ level =
    O.load g (next_link (O.Ptr.node_exn pred) level) curr;
    if poisoned curr then search g t key ~pred ~curr ~succ
    else search_step g t key ~pred ~curr ~succ level

  and search_step g t key ~pred ~curr ~succ level =
    let c = O.Ptr.node_exn curr in
    O.load g (next_link c level) succ;
    if poisoned succ then search g t key ~pred ~curr ~succ
    else if O.Ptr.is_marked succ then begin
      (* skip the deleted node, traversing its frozen pointer *)
      O.assign g curr succ;
      search_step g t key ~pred ~curr ~succ level
    end
    else if key_of c < key then begin
      O.assign g pred curr;
      O.assign g curr succ;
      search_step g t key ~pred ~curr ~succ level
    end
    else if level > 0 then search_level g t key ~pred ~curr ~succ (level - 1)
    else
      key_of c = key
      &&
      let v = Link.view (next_link c 0) in
      not (Link.v_is_marked v || Link.v_is_poison v)

  let contains_in g t key =
    let pred = O.ptr g and curr = O.ptr g and succ = O.ptr g in
    search g t key ~pred ~curr ~succ

  let contains t key =
    check_key key;
    O.with_guard2 t.orc contains_in t key

  (* Sequential helpers (quiesced): walk the bottom level. *)
  let to_list t =
    let rec walk acc n =
      match Link.target (Link.get n.next.(0)) with
      | None -> List.rev acc
      | Some nx ->
          if nx == t.tail then List.rev acc
          else
            let st = Link.get nx.next.(0) in
            let deleted = Link.is_marked st || Link.is_poison st in
            walk (if deleted then acc else key_of nx :: acc) nx
    in
    walk [] t.head

  let size t = List.length (to_list t)

  let destroy t = O.release_roots t.orc [ t.head_root; t.tail_root ]

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end
