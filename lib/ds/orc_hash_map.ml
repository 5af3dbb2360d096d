(** Michael's lock-free hash table [18] — the second structure of the
    paper that gives us the list: a fixed array of lock-free list
    buckets, written once against {!Intf.CORE}.  {!Make} runs it under
    OrcGC, {!Hash_map.Make} over a manual scheme.

    One core instance and one allocator serve all buckets (hazard
    indexes are per-thread, not per-bucket), and a single tail sentinel
    is shared by every bucket and kept by one extra root.  Bucket heads
    are root links, so the find/insert/delete windows are those of
    {!Orc_michael_list}, anchored at [buckets.(hash key)]. *)

open Atomicx

let default_buckets = 64

type node = { key : int; next : node Link.t; hdr : Memdom.Hdr.t }

module N = struct
  type t = node

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

module Impl (O : Intf.CORE with type node = node) = struct
  type t = {
    buckets : node Link.t array;
    tail : node; (* shared sentinel, never retired *)
    tail_root : node Link.t;
    orc : O.t;
    alloc : Memdom.Alloc.t;
  }

  let scheme_name = O.name

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode ("hash_map/" ^ O.name) in
    let orc = O.create ~max_hps:4 alloc in
    O.with_guard orc (fun g ->
        let tail =
          O.alloc_node_into g (O.ptr g) (fun hdr ->
              { key = max_int; next = O.new_link_v g Link.v_null; hdr })
        in
        let tail_v = O.v_ptr orc tail in
        {
          buckets =
            Array.init default_buckets (fun _ -> O.new_link_v g tail_v);
          tail;
          tail_root = O.new_link_v g tail_v;
          orc;
          alloc;
        })

  (* Fibonacci hashing over the key. *)
  let bucket t key =
    t.buckets.((key * 0x2545F4914F6CDD1D) land max_int
               mod Array.length t.buckets)

  (* Orc_michael_list's window-find, anchored at the bucket head. *)
  let rec find t g key ~prev ~curr ~next =
    let restart () = find t g key ~prev ~curr ~next in
    let rec loop prev_link =
      let c = O.Ptr.node_exn curr in
      O.load g (next_of c) next;
      if not (Link.view_eq (Link.view prev_link) (O.Ptr.view curr)) then
        restart ()
      else if O.Ptr.is_marked next then begin
        let unmarked =
          Link.v_after (O.Ptr.view curr) (Link.v_clean (O.Ptr.view next))
        in
        if O.cas_v g prev_link ~expected:(O.Ptr.view curr) ~desired:unmarked
        then begin
          O.retire g curr;
          O.assign g curr next;
          O.Ptr.retag_v curr unmarked;
          loop prev_link
        end
        else restart ()
      end
      else if key_of c >= key then (key_of c = key, prev_link)
      else begin
        O.advance g prev curr next;
        loop (next_of c)
      end
    in
    let root = bucket t key in
    O.load g root curr;
    loop root

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Hash_map: key out of range"

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
      if found then begin
        Option.iter (O.discard g) !node;
        false
      end
      else begin
        let n =
          match !node with
          | Some n -> n
          | None ->
              let n =
                O.alloc_node_into g (O.ptr g) (fun hdr ->
                    { key; next = O.new_link_v g Link.v_null; hdr })
              in
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
        else if
          O.cas_v g (next_of c) ~expected:(O.Ptr.view next)
            ~desired:(Link.v_mark (O.Ptr.view next))
        then begin
          (* physical unlink, which retires [curr] (orc: ends its
             protection, so the victim is freed here unless another
             thread protects it); otherwise a find cleans up *)
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

  (* Quiesced helpers: keys across all buckets, ascending. *)
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
    O.release_roots t.orc (t.tail_root :: Array.to_list t.buckets)

  let unreclaimed t = O.unreclaimed t.orc
  let flush t = O.flush t.orc
  let alloc t = t.alloc
end

module Make () = Impl (Orc_core.Orc.Make (N))
