(* The manual-scheme adapter behind Michael_list, Split_map and
   Nm_tree: every removed node is retired exactly once under each
   manual scheme, [release_roots] frees a shared, partly marked graph
   exactly once, and [advance] keeps a rotated-out node protected until
   the guard ends. *)

open Util
open Atomicx
module So = Ds.Split_order

(* {2 Retired exactly once} *)

(* [rounds] times over: add [keys] keys, then let two domains race to
   remove every one of them, one ascending and one descending, so each
   walks through the other's deletions.  A walker that meets a marked
   node unlinks it inside [find], so both retire points run: a node
   retired twice raises [Memdom.Hdr.Double_retire], a node never
   retired stays live.  After a flush only the sentinels and dummies
   ([residents]) may be live, and [destroy] + [flush] must free those
   too.  [touch s k] runs on the main domain before each add and after
   each race. *)
let retire_exactly_once (type t) (module M : Ds.Intf.SET with type t = t)
    ~keys ~rounds ~touch ~residents () =
  let s = M.create () in
  for _ = 1 to rounds do
    for k = 1 to keys do
      touch s k;
      check_bool "add" true (M.add s k)
    done;
    let removed =
      run_domains 2 (fun ~i ~tid:_ ->
          let n = ref 0 in
          for j = 1 to keys do
            if M.remove s (if i = 0 then j else keys + 1 - j) then incr n
          done;
          !n)
    in
    for k = 1 to keys do
      touch s k
    done;
    check_int "each key removed once" keys (List.fold_left ( + ) 0 removed)
  done;
  M.flush s;
  check_bool "empty" true (M.to_list s = []);
  check_int "only sentinels and dummies live" (residents s)
    (Memdom.Alloc.live (M.alloc s));
  M.destroy s;
  M.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (M.alloc s))

let schemes : (string * (module Reclaim.Scheme_intf.MAKER)) list =
  [
    ("hp", (module Reclaim.Hp.Make));
    ("ebr", (module Reclaim.Ebr.Make));
    ("he", (module Reclaim.He.Make));
    ("ibr", (module Reclaim.Ibr.Make));
    ("ptb", (module Reclaim.Ptb.Make));
    ("ptp", (module Orc_core.Ptp.Make));
  ]

(* a find-unlink is a narrow race: enough rounds that each case meets
   it more often than not *)
let keys = 400
let rounds = 30
let nothing _ _ = ()

let michael (module R : Reclaim.Scheme_intf.MAKER) =
  retire_exactly_once
    (module Ds.Michael_list.Make (R))
    ~keys ~rounds ~touch:nothing ~residents:(fun _ -> 2 (* head, tail *))

(* The split map's residents are the tail plus one dummy per bucket
   ever initialized: every bucket an operation landed in, at the size
   the table had then, and all its ancestors. *)
let split_map (module R : Reclaim.Scheme_intf.MAKER) =
  let module M = Ds.Split_map.Make (R) in
  let inited = Hashtbl.create 64 in
  let rec init b =
    Hashtbl.replace inited b ();
    if b > 0 then init (So.parent b)
  in
  let touch s k =
    init (So.bucket_of ~hash:(So.hash k) ~size:(M.buckets s))
  in
  retire_exactly_once
    (module M)
    ~keys ~rounds ~touch
    ~residents:(fun _ -> 1 + Hashtbl.length inited)
    ()

(* A tree removal excises a region through [retire_region]; what stays
   is r, s and the three infinity leaves. *)
let nm_tree (module R : Reclaim.Scheme_intf.MAKER) =
  retire_exactly_once
    (module Ds.Nm_tree.Make (R))
    ~keys ~rounds ~touch:nothing ~residents:(fun _ -> 5)

let retire_cases =
  List.concat_map
    (fun (name, r) ->
      [
        Alcotest.test_case ("michael-" ^ name) `Quick (michael r);
        Alcotest.test_case ("splitmap-" ^ name) `Quick (fun () ->
            split_map r);
        Alcotest.test_case ("nmtree-" ^ name) `Quick (nm_tree r);
      ])
    schemes

(* {2 The adapter itself, under hazard pointers} *)

type node = { v : int; next : node Link.t; hdr : Memdom.Hdr.t }

module C =
  Ds.Manual_core.Make
    (Reclaim.Hp.Make)
    (struct
      type t = node

      let hdr n = n.hdr
      let iter_links n f = f n.next
    end)

let fresh () =
  let alloc = Memdom.Alloc.create "manual-core-test" in
  (alloc, C.create ~max_hps:4 alloc)

(* [chain c g p [a; b; ...] ~tail] builds a -> b -> ... -> tail through
   the handle [p] and returns the first node. *)
let chain c g p vs ~tail =
  List.fold_right
    (fun v nx ->
      C.alloc_node_into g p Memdom.Handle.fresh Memdom.Handle.fresh (fun hdr ->
          { v; next = C.new_link_v g nx; hdr })
      |> C.v_ptr c)
    vs tail

let target link = Link.v_target_exn link (Link.view link)

(* Two roots over a shared suffix, one node marked but still linked,
   and one node unlinked and retired whose link still points into the
   live graph: [release_roots] frees each reachable node once and the
   flush frees the retired one. *)
let test_release_roots_frees_once () =
  let alloc, c = fresh () in
  let root1, root2 =
    C.with_guard c (fun g ->
        let p = C.ptr g in
        let shared = chain c g p [ 3; 4 ] ~tail:Link.v_null in
        let root1 = C.new_link_v g (chain c g p [ 1; 9; 2 ] ~tail:shared) in
        let root2 = C.new_link_v g (chain c g p [ 5 ] ~tail:shared) in
        (root1, root2))
  in
  check_int "six nodes" 6 (Memdom.Alloc.live alloc);
  let nine =
    C.with_guard c (fun g ->
        let a = C.ptr g and victim = C.ptr g in
        C.load g root1 a;
        let a_next = (C.Ptr.node_exn a).next in
        C.load g a_next victim;
        let nine = C.Ptr.node_exn victim in
        check_int "victim" 9 nine.v;
        check_bool "unlinked" true
          (C.unlink_v g a_next victim
             ~desired:(Link.v_clean (Link.view nine.next)));
        (* 2 is marked (logically deleted) but stays linked *)
        let two = target a_next in
        C.store_v g two.next (Link.v_mark (Link.view two.next));
        nine)
  in
  check_bool "retired node still pending" false (Memdom.Hdr.is_freed nine.hdr);
  C.release_roots c [ root1; root2 ];
  check_bool "roots nulled" true
    (Link.v_is_null (Link.view root1) && Link.v_is_null (Link.view root2));
  check_bool "retired node freed by the flush" true
    (Memdom.Hdr.is_freed nine.hdr);
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  check_int "nothing unreclaimed" 0 (C.unreclaimed c)

(* After [advance], [next] names prev's old target in prev's old slot.
   Another thread unlinks and retires that node and scans: it must stay
   live while the guard runs and be freed once the guard has ended. *)
let test_advance_keeps_rotated_out () =
  let alloc, c = fresh () in
  let root =
    C.with_guard c (fun g ->
        C.new_link_v g (chain c g (C.ptr g) [ 1; 2; 3 ] ~tail:Link.v_null))
  in
  let a = target root in
  C.with_guard c (fun g ->
      let prev = C.ptr g and curr = C.ptr g and next = C.ptr g in
      C.load g root prev;
      C.load g (C.Ptr.node_exn prev).next curr;
      C.load g (C.Ptr.node_exn curr).next next;
      C.advance g prev curr next;
      check_int "prev took curr" 2 (C.Ptr.node_exn prev).v;
      check_int "curr took next" 3 (C.Ptr.node_exn curr).v;
      check_bool "next took prev's old node" true (C.Ptr.node_exn next == a);
      let unlinked =
        run_domains 1 (fun ~i:_ ~tid:_ ->
            let ok =
              C.with_guard c (fun g' ->
                  let p = C.ptr g' in
                  C.load g' root p;
                  C.unlink_v g' root p
                    ~desired:(Link.v_clean (Link.view a.next)))
            in
            C.flush c;
            ok)
      in
      check_bool "unlinked by the other thread" true (unlinked = [ true ]);
      check_bool "rotated-out node still live" false
        (Memdom.Hdr.is_freed a.hdr);
      Alcotest.check_raises "aliased handles rejected"
        (Invalid_argument "Manual_core.advance: handles must be distinct")
        (fun () -> C.advance g prev curr prev));
  C.flush c;
  check_bool "freed after the guard" true (Memdom.Hdr.is_freed a.hdr);
  C.release_roots c [ root ];
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* {2 Nested guards and the exception path}

   [Spy] is hazard pointers that also record, per hazard index, the uid
   the caller's row publishes (-1 = empty), so a test reads exactly
   which slots the adapter's guards published and cleared. *)

let published = Array.make 8 (-1)

module Spy (N : Reclaim.Scheme_intf.NODE) = struct
  include Reclaim.Hp.Make (N)

  let uid_of v link =
    if Link.v_has_target v then (N.hdr (Link.v_target_exn link v)).Memdom.Hdr.uid
    else -1

  let get_protected_v t ~tid ~idx link =
    let v = get_protected_v t ~tid ~idx link in
    published.(idx) <- uid_of v link;
    v

  let protect_raw t ~tid ~idx n =
    protect_raw t ~tid ~idx n;
    published.(idx) <- (N.hdr n).Memdom.Hdr.uid

  let copy_protection t ~tid ~src ~dst =
    copy_protection t ~tid ~src ~dst;
    published.(dst) <- published.(src)

  let clear t ~tid ~idx =
    clear t ~tid ~idx;
    published.(idx) <- -1

  let end_op t ~tid =
    end_op t ~tid;
    Array.fill published 0 (Array.length published) (-1)
end

module Cs =
  Ds.Manual_core.Make
    (Spy)
    (struct
      type t = node

      let hdr n = n.hdr
      let iter_links n f = f n.next
    end)

let spy_chain () =
  let alloc = Memdom.Alloc.create "manual-core-spy" in
  let c = Cs.create ~max_hps:4 alloc in
  let root =
    Cs.with_guard c (fun g ->
        let p = Cs.ptr g in
        let v2 =
          Cs.alloc_node_into g p Memdom.Handle.fresh
            Memdom.Handle.fresh (fun hdr ->
              { v = 2; next = Cs.new_link_v g Link.v_null; hdr })
          |> Cs.v_ptr c
        in
        Cs.alloc_node_into g p Memdom.Handle.fresh
          Memdom.Handle.fresh (fun hdr ->
            { v = 1; next = Cs.new_link_v g v2; hdr })
        |> Cs.v_ptr c |> Cs.new_link_v g)
  in
  (alloc, c, root)

let uid n = n.hdr.Memdom.Hdr.uid
let empty_row = Array.make 8 (-1)

(* An inner guard's handles take the hazard indexes after the outer
   guard's; its exit clears only those, so the outer handle keeps its
   view and its slot. *)
let test_nested_guards () =
  let alloc, c, root = spy_chain () in
  let one = target root in
  Cs.with_guard c (fun g ->
      let p = Cs.ptr g in
      Cs.load g root p;
      let v1 = Cs.Ptr.view p in
      Cs.with_guard c (fun gi ->
          let q = Cs.ptr gi in
          Cs.load gi one.next q;
          check_int "outer slot 0 kept" (uid one) published.(0);
          check_int "inner handle at slot 1" (uid (Cs.Ptr.node_exn q))
            published.(1);
          Alcotest.check_raises "outer guard cannot make a handle now"
            (Invalid_argument
               "Frame.handle: the guard is not the innermost open guard")
            (fun () -> ignore (Cs.ptr g)));
      check_bool "outer view intact" true (Link.view_eq v1 (Cs.Ptr.view p));
      check_int "outer slot 0 still published" (uid one) published.(0);
      check_int "inner slot 1 cleared" (-1) published.(1);
      (* the outer guard's next handle takes the inner's index *)
      let q = Cs.ptr g in
      Cs.load g one.next q;
      check_int "outer handle at slot 1" 2 (Cs.Ptr.node_exn q).v);
  check_bool "every slot empty after the outer guard" true
    (published = empty_row);
  Cs.release_roots c [ root ];
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* An exception leaving a guard clears every slot that guard used and
   re-raises the exception itself. *)
let test_guard_exception_releases () =
  let alloc, c, root = spy_chain () in
  let one = target root in
  let boom = Failure "boom" in
  (match
     Cs.with_guard c (fun g ->
         let p = Cs.ptr g in
         Cs.load g root p;
         (match
            Cs.with_guard c (fun gi ->
                let q = Cs.ptr gi and r = Cs.ptr gi in
                Cs.load gi one.next q;
                Cs.assign gi r q;
                raise Exit)
          with
         | () -> Alcotest.fail "inner guard returned"
         | exception Exit -> ());
         check_int "outer slot kept" (uid one) published.(0);
         check_int "inner slot 1 cleared" (-1) published.(1);
         check_int "inner slot 2 cleared" (-1) published.(2);
         raise boom)
   with
  | () -> Alcotest.fail "guard returned"
  | exception e -> check_bool "the original exception" true (e == boom));
  check_bool "every slot empty" true (published = empty_row);
  Cs.release_roots c [ root ];
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* {2 Type-stable node recycling (Pool mode) under hazard pointers}

   The Michael-list node ([Util.Hooked]) over [Manual_core] with HP: a
   freed record comes back with its arena slot, re-initialised in
   place, once the scheme's free has released the slot. *)

module Ml = Ds.Orc_michael_list

module Ch = Ds.Manual_core.Make (Reclaim.Hp.Make) (Hooked)

let new_node g p ord = Ch.alloc_node_into g p Ml.make_node Ml.renew_node ord

(* A manual scheme frees without dropping links: the record comes back
   with its old successor still in its link, and the re-initialiser
   writes [Null] over it under the next stamp.  No view of an earlier
   life [view_eq]s a later one, and a CAS expecting one fails. *)
let test_recycled_link_stamps () =
  let alloc = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "hp-recycle" in
  let c = Ch.create ~max_hps:4 alloc in
  let tail = Ch.with_guard c (fun g -> new_node g (Ch.ptr g) 0) in
  let first = ref None and views = ref [] in
  for life = 1 to 20 do
    Ch.with_guard c (fun g ->
        let n = new_node g (Ch.ptr g) life in
        (match !first with
        | None -> first := Some n
        | Some f -> check_bool "the same record, re-initialised" true (n == f));
        check_int "ord re-initialised" life n.Ml.ord;
        let l = Ml.next_link n in
        check_bool "link back to Null" true (Link.v_is_null (Link.view l));
        Ch.store_v g l (Ch.v_ptr c tail);
        let v = Link.view l in
        List.iter
          (fun old ->
            check_bool "no earlier life's view matches" false
              (Link.view_eq old v);
            check_bool "a CAS expecting it fails" false
              (Link.cas_v l old Link.v_null))
          !views;
        views := v :: !views;
        (* never published: freed at once, its slot with it *)
        Ch.discard g n)
  done;
  check_int "every life after the first re-used the record" 19
    (Memdom.Alloc.node_reuses alloc);
  Ch.with_guard c (fun g -> Ch.discard g tail);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* HP's protect after a recycle between its deref and its publish: the
   hook fires inside the protect loop's uid read, where another domain
   unlinks and retires the node, has it freed, re-uses its record for a
   new node under a new uid and links that back in.  The validation
   fails and the protect retries, ending on the new life and the
   link's current word. *)
let test_recycled_between_deref_and_publish () =
  let alloc = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "hp-recycle-load" in
  let c = Ch.create ~max_hps:4 alloc in
  let n = Ch.with_guard c (fun g -> new_node g (Ch.ptr g) 1) in
  let root = Ch.with_guard c (fun g -> Ch.new_link_v g (Ch.v_ptr c n)) in
  let old_uid = n.Ml.hdr.Memdom.Hdr.uid and before = Link.view root in
  let recycle () =
    Domain.join
      (Domain.spawn (fun () ->
           Registry.with_tid (fun _ ->
               Ch.with_guard c (fun g ->
                   let q = Ch.ptr g in
                   Ch.load g root q;
                   check_bool "unlinked" true
                     (Ch.unlink_v g root q ~desired:Link.v_null));
               (* the main domain is parked in the hook, publishing
                  nothing yet: the drain frees the node *)
               Ch.flush c;
               Ch.with_guard c (fun g ->
                   let m = new_node g (Ch.ptr g) 2 in
                   Ch.store_v g root (Ch.v_ptr c m)))))
  in
  Ch.with_guard c (fun g ->
      let p = Ch.ptr g in
      hdr_hook := Some recycle;
      Ch.load g root p;
      check_bool "the hook fired" true (!hdr_hook = None);
      let m = Ch.Ptr.node_exn p in
      check_bool "the record was recycled" true (m == n);
      check_int "as the new node" 2 m.Ml.ord;
      check_bool "under a new uid" true (m.Ml.hdr.Memdom.Hdr.uid <> old_uid);
      check_bool "the link was rewritten" false
        (Link.view_eq before (Link.view root));
      check_bool "the handle holds the current word" true
        (Link.view_eq (Ch.Ptr.view p) (Link.view root)));
  Ch.release_roots c [ root ];
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* A dying tid's holdings reach the orphan pools, none lost and none
   freed twice: its HP retired row (below the scan threshold, so
   nothing of it was freed) and the remote frees still buffered in its
   pool outbox.  A survivor's drain adopts and frees the retired
   nodes exactly once (a second free would raise [Double_free]), and
   its next hand-outs are exactly the dead tid's headers, each once. *)
let test_dying_tid_orphans () =
  let alloc = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "hp-orphans" in
  let c = Ch.create ~max_hps:8 alloc in
  let k = 5 and r = 3 in
  let nodes, roots =
    Ch.with_guard c (fun g ->
        let nodes = List.init k (fun i -> new_node g (Ch.ptr g) i) in
        (nodes, List.map (fun n -> Ch.new_link_v g (Ch.v_ptr c n)) nodes))
  in
  let loose = List.init r (fun _ -> Memdom.Alloc.hdr alloc ()) in
  let pending =
    run_domains 1 (fun ~i:_ ~tid:_ ->
        Ch.with_guard c (fun g ->
            let q = Ch.ptr g in
            List.iter
              (fun root ->
                Ch.load g root q;
                ignore (Ch.unlink_v g root q ~desired:Link.v_null))
              roots);
        (* headers the main domain allocated: remote frees, buffered *)
        List.iter (Memdom.Alloc.free alloc) loose;
        Ch.unreclaimed c)
  in
  check_bool "the dead tid's row held every retiree" true (pending = [ k ]);
  check_int "nothing freed before the drain" r (Memdom.Alloc.freed alloc);
  Ch.flush c;
  check_int "the drain freed every retiree" (k + r) (Memdom.Alloc.freed alloc);
  check_int "nothing left retired" 0 (Ch.unreclaimed c);
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  let expected = List.map (fun n -> n.Ml.hdr) nodes @ loose in
  let hits = Memdom.Alloc.pool_hits alloc in
  let back = List.init (k + r) (fun _ -> Memdom.Alloc.hdr alloc ()) in
  check_int "every hand-out a hit" (k + r)
    (Memdom.Alloc.pool_hits alloc - hits);
  check_bool "exactly the dead tid's headers" true
    (List.for_all (fun h -> List.memq h back) expected
    && List.for_all (fun h -> List.memq h expected) back);
  check_int "none twice" (k + r)
    (List.length
       (List.sort_uniq compare (List.map (fun h -> h.Memdom.Hdr.uid) back)));
  let misses = Memdom.Alloc.pool_misses alloc in
  ignore (Memdom.Alloc.hdr alloc ());
  check_int "then the pool is dry" (misses + 1) (Memdom.Alloc.pool_misses alloc)

let suite =
  [
    ("manual:retire-once", retire_cases);
    ( "manual:adapter",
      [
        Alcotest.test_case "release_roots frees each node once" `Quick
          test_release_roots_frees_once;
        Alcotest.test_case "advance keeps a rotated-out node" `Quick
          test_advance_keeps_rotated_out;
        Alcotest.test_case "nested guards keep the outer handles" `Quick
          test_nested_guards;
        Alcotest.test_case "an exception clears the guard's slots" `Quick
          test_guard_exception_releases;
      ] );
    ( "manual:recycle",
      [
        Alcotest.test_case "recycled record: link stamps stay monotone"
          `Quick test_recycled_link_stamps;
        Alcotest.test_case "recycled between deref and publish: protect retries"
          `Quick test_recycled_between_deref_and_publish;
        Alcotest.test_case "a dying tid's retirees and remote frees orphaned"
          `Quick test_dying_tid_orphans;
      ] );
  ]
