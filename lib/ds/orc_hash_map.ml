(** Michael's lock-free hash table with OrcGC — bucket heads are root
    links into OrcGC-managed list nodes; the shared tail sentinel is kept
    alive by one extra root.  As everywhere, the only change versus the
    manual variant is the annotations: no retire call exists. *)

open Atomicx

let default_buckets = Hash_map.default_buckets

module Make () = struct
  type node = { key : int; next : node Link.t; hdr : Memdom.Hdr.t }

  module O = Orc_core.Orc.Make (struct
    type t = node

    let hdr n = n.hdr
    let iter_links n f = f n.next
  end)

  type t = {
    buckets : node Link.t array;
    tail : node;
    tail_root : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = "orc"

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "orc_hash_map" in
    let orc = O.create alloc in
    O.with_guard orc (fun g ->
        let tp =
          O.alloc_node g (fun hdr ->
              {
                key = max_int;
                next = Link.make_in (O.arena orc) Link.Null;
                hdr;
              })
        in
        let tail = O.Ptr.node_exn tp in
        {
          buckets =
            Array.init default_buckets (fun _ ->
                O.new_link_v g (O.Ptr.view tp));
          tail;
          tail_root = O.new_link_v g (O.Ptr.view tp);
          orc;
          alloc;
        })

  let bucket t key =
    t.buckets.((key * 0x2545F4914F6CDD1D) land max_int
               mod Array.length t.buckets)

  let rec find t g key ~prev ~curr ~next =
    let prev_link = ref (bucket t key) in
    O.load g !prev_link curr;
    let restart () = find t g key ~prev ~curr ~next in
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
      else if key_of c >= key then (key_of c = key, !prev_link)
      else begin
        O.advance g prev curr next;
        prev_link := next_of c;
        loop ()
      end
    in
    loop ()

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Orc_hash_map: key out of range"

  let contains t key =
    check_key key;
    O.with_guard t.orc (fun g ->
        let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
        fst (find t g key ~prev ~curr ~next))

  let add t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    let node = ref None in
    let rec loop () =
      let found, prev_link = find t g key ~prev ~curr ~next in
      if found then false
      else begin
        let n =
          match !node with
          | Some n -> n
          | None ->
              let p =
                O.alloc_node g (fun hdr ->
                    {
                      key;
                      next = Link.make_in (O.arena t.orc) Link.Null;
                      hdr;
                    })
              in
              let n = O.Ptr.node_exn p in
              node := Some n;
              n
        in
        O.store_v g n.next (O.Ptr.view curr);
        if
          O.cas_v g prev_link ~expected:(O.Ptr.view curr)
            ~desired:(O.v_ptr t.orc n)
        then true
        else loop ()
      end
    in
    loop ()

  let remove t key =
    check_key key;
    O.with_guard t.orc @@ fun g ->
    let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
    let rec loop () =
      let found, prev_link = find t g key ~prev ~curr ~next in
      if not found then false
      else begin
        let c = O.Ptr.node_exn curr in
        O.load g (next_of c) next;
        if O.Ptr.is_marked next then loop ()
        else
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
            then ignore (find t g key ~prev ~curr ~next);
            true
          end
          else loop ()
      end
    in
    loop ()

  let to_list t =
    let acc = ref [] in
    Array.iter
      (fun head ->
        let rec walk st =
          match Link.target st with
          | None -> ()
          | Some n ->
              if n != t.tail then begin
                if not (Link.is_marked (Link.get n.next)) then
                  acc := key_of n :: !acc;
                walk (Link.get n.next)
              end
        in
        walk (Link.get head))
      t.buckets;
    List.sort compare !acc

  let size t = List.length (to_list t)

  let destroy t =
    O.with_guard t.orc (fun g ->
        Array.iter (fun head -> O.store_v g head Link.v_null) t.buckets;
        O.store_v g t.tail_root Link.v_null)

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end
