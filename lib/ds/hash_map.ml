(** Michael's lock-free hash table [18] — the second structure of the
    same paper that gives us the list: an array of lock-free list
    buckets, parameterized by a manual reclamation scheme.

    One scheme instance and one allocator serve all buckets (hazard
    indexes are per-thread, not per-bucket), and a single tail sentinel
    is shared by every bucket.  Bucket heads are root links, so the
    find/insert/delete windows are the same as in {!Michael_list}, just
    anchored at [buckets.(hash key)]. *)

open Atomicx

let default_buckets = 64

module Make (R : Reclaim.Scheme_intf.MAKER) = struct
  type node = { key : int; next : node Link.t; hdr : Memdom.Hdr.t }

  module S = R (struct
    type t = node

    let hdr n = n.hdr
  end)

  type t = {
    buckets : node Link.t array;
    tail : node; (* shared sentinel, never retired *)
    scheme : S.t;
    alloc : Memdom.Alloc.t;
    arena : node Link.arena;
  }

  let scheme_name = S.name

  let next_of n =
    Memdom.Hdr.check_access n.hdr;
    n.next

  let key_of n =
    Memdom.Hdr.check_access n.hdr;
    n.key

  let create ?(mode = Memdom.Alloc.System) () =
    let alloc = Memdom.Alloc.create ~mode "hash_map" in
    let scheme = S.create ~max_hps:4 alloc in
    let arena = Memdom.Handle.arena ~hdr:(fun n -> n.hdr) () in
    let tail =
      {
        key = max_int;
        next = Link.make_in arena Link.Null;
        hdr = Memdom.Alloc.hdr alloc ();
      }
    in
    {
      buckets =
        Array.init default_buckets (fun _ ->
            Link.make_in arena (Link.Ptr tail));
      tail;
      scheme;
      alloc;
      arena;
    }

  (* Fibonacci hashing over the key. *)
  let bucket t key =
    t.buckets.((key * 0x2545F4914F6CDD1D) land max_int
               mod Array.length t.buckets)

  (* Same window-find as Michael_list, anchored at the bucket head. *)
  let rec find t ~tid key =
    let prev_link = ref (bucket t key) in
    let curr_v = ref (S.get_protected_v t.scheme ~tid ~idx:0 !prev_link) in
    let restart () = find t ~tid key in
    let rec loop () =
      let curr = Link.v_target_exn !prev_link !curr_v in
      let next_v = S.get_protected_v t.scheme ~tid ~idx:1 (next_of curr) in
      if not (Link.view_eq (Link.view !prev_link) !curr_v) then restart ()
      else if Link.v_is_marked next_v then begin
        let unmarked = Link.v_after !curr_v (Link.v_clean next_v) in
        if Link.cas_v !prev_link !curr_v unmarked then begin
          S.retire t.scheme ~tid curr;
          curr_v := unmarked;
          S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
          loop ()
        end
        else restart ()
      end
      else if key_of curr >= key then (key_of curr = key, !prev_link, !curr_v)
      else begin
        S.copy_protection t.scheme ~tid ~src:0 ~dst:2;
        prev_link := next_of curr;
        curr_v := next_v;
        S.copy_protection t.scheme ~tid ~src:1 ~dst:0;
        loop ()
      end
    in
    loop ()

  let check_key key =
    if key = min_int || key = max_int then
      invalid_arg "Hash_map: key out of range"

  let contains t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let found, _, _ = find t ~tid key in
    S.end_op t.scheme ~tid;
    found

  let add t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let rec loop () =
      let found, prev_link, curr_v = find t ~tid key in
      if found then false
      else
        let node =
          {
            key;
            next = Link.make_of_view t.arena curr_v;
            hdr = Memdom.Alloc.hdr t.alloc ();
          }
        in
        if Link.cas_v prev_link curr_v (Link.v_ptr_in t.arena node) then true
        else begin
          Memdom.Alloc.free t.alloc node.hdr;
          loop ()
        end
    in
    let r = loop () in
    S.end_op t.scheme ~tid;
    r

  let remove t key =
    check_key key;
    let tid = Registry.tid () in
    S.begin_op t.scheme ~tid;
    let rec loop () =
      let found, prev_link, curr_v = find t ~tid key in
      if not found then false
      else
        let curr = Link.v_target_exn prev_link curr_v in
        let next_v = S.get_protected_v t.scheme ~tid ~idx:1 (next_of curr) in
        if Link.v_is_marked next_v then loop ()
        else begin
          (* the tail sentinel follows every found node *)
          assert (Link.v_has_target next_v);
          if Link.cas_v (next_of curr) next_v (Link.v_mark next_v) then begin
            if Link.cas_v prev_link curr_v (Link.v_clean next_v) then
              S.retire t.scheme ~tid curr
            else ignore (find t ~tid key);
            true
          end
          else loop ()
        end
    in
    let r = loop () in
    S.end_op t.scheme ~tid;
    r

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
    Array.iter
      (fun head ->
        let rec free_chain n =
          if n != t.tail then begin
            let nx = Option.get (Link.target (Link.get n.next)) in
            Memdom.Alloc.free t.alloc n.hdr;
            free_chain nx
          end
        in
        (match Link.target (Link.get head) with
        | Some n -> free_chain n
        | None -> ());
        Link.set head Link.Null)
      t.buckets;
    Memdom.Alloc.free t.alloc t.tail.hdr;
    S.flush t.scheme

  let unreclaimed t = S.unreclaimed t.scheme
  let flush t = S.flush t.scheme
  let alloc t = t.alloc
end
