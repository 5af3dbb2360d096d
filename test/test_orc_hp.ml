(* OrcGC over the HP backend must satisfy the same automatic-reclamation
   contract as over the PTP backend (paper §4: the backend is
   pluggable); only the memory bound differs. *)

open Util
open Atomicx

type onode = { hdr : Memdom.Hdr.t; value : int; next : onode Link.t }

module O = Orc_core.Orc.Make_hp (struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end)

let fresh () =
  let alloc = Memdom.Alloc.create "orc-hp-test" in
  (alloc, O.create alloc)

let mk o v hdr = { hdr; value = v; next = Link.make_in (O.arena o) Link.Null }

let read_value n =
  Memdom.Hdr.check_access n.hdr;
  n.value

let test_root_link_keeps_alive () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  let node =
    O.with_guard o (fun g ->
        let p = O.alloc_node g (mk o 42) in
        O.store_v g root (O.Ptr.view p);
        O.Ptr.node_exn p)
  in
  check_bool "alive via root" false (Memdom.Hdr.is_freed node.hdr);
  check_int "readable" 42 (read_value node);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_bool "freed after unlink+flush" true (Memdom.Hdr.is_freed node.hdr);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

let test_local_ref_pins () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.alloc_node g (mk o 5) in
      O.store_v g root (O.Ptr.view p);
      let q = O.ptr g in
      O.load g root q;
      O.store_v g root Link.v_null;
      let n = O.Ptr.node_exn q in
      check_bool "pinned by local ref" false (Memdom.Hdr.is_freed n.hdr);
      check_int "still readable" 5 (read_value n));
  O.flush o;
  check_int "no leak after guard" 0 (Memdom.Alloc.live alloc)

let test_reinsertion_survives () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.alloc_node g (mk o 9) in
      O.store_v g root (O.Ptr.view p);
      let q = O.ptr g in
      O.load g root q;
      O.store_v g root Link.v_null;
      O.store_v g root (O.Ptr.view q));
  (match Link.target (Link.get root) with
  | Some n ->
      check_bool "alive after reinsertion" false (Memdom.Hdr.is_freed n.hdr);
      check_int "value intact" 9 (read_value n)
  | None -> Alcotest.fail "root lost node");
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

let test_long_chain_cascade_iterative () =
  let alloc, o = fresh () in
  let n = 50_000 in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.ptr g and q = O.ptr g in
      for i = 1 to n do
        O.load g root q;
        let node = O.alloc_node_into g p Memdom.Handle.fresh
                     Memdom.Handle.fresh (mk o i) in
        O.store_v g node.next (O.Ptr.view q);
        O.store_v g root (O.v_ptr o node)
      done);
  check_int "chain allocated" n (Memdom.Alloc.live alloc);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_int "entire chain reclaimed, no stack overflow" 0
    (Memdom.Alloc.live alloc)

let test_concurrent_stress () =
  let alloc, o = fresh () in
  let nslots = 8 in
  let roots = Array.init nslots (fun _ -> Link.make_in (O.arena o) Link.Null) in
  run_domains_exn 4 (fun ~i ~tid:_ ->
      let rng = Rng.create ((i + 1) * 104729) in
      for k = 1 to 2_500 do
        let root = roots.(Rng.int rng nslots) in
        O.with_guard o (fun g ->
            match Rng.int rng 4 with
            | 0 ->
                let p = O.alloc_node g (mk o k) in
                O.store_v g root (O.Ptr.view p)
            | 1 -> O.store_v g root Link.v_null
            | 2 ->
                let q = O.ptr g in
                O.load g root q;
                let p = O.alloc_node g (mk o k) in
                ignore
                  (O.cas_v g root ~expected:(O.Ptr.view q)
                     ~desired:(O.Ptr.view p))
            | _ ->
                let q = O.ptr g in
                O.load g root q;
                (match O.Ptr.node q with
                | Some n -> ignore (read_value n)
                | None -> ()))
      done);
  O.with_guard o (fun g ->
      Array.iter (fun r -> O.store_v g r Link.v_null) roots);
  O.flush o;
  check_int "no leak after stress" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

let build_chain o g root n =
  let p = O.ptr g and q = O.ptr g in
  for i = n downto 1 do
    O.load g root q;
    let node = O.alloc_node_into g p Memdom.Handle.fresh
                 Memdom.Handle.fresh (mk o i) in
    O.store_v g node.next (O.Ptr.view q);
    O.store_v g root (O.v_ptr o node)
  done

let same_opt a b =
  match a, b with Some x, Some y -> x == y | None, None -> true | _ -> false

(* [advance] moves no protection: hazard row and share counts are
   untouched, and three hops (the identity) allocate nothing. *)
let test_advance_permutes_only () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 2);
  O.with_guard o (fun g ->
      let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
      O.load g root curr;
      O.load g (O.Ptr.node_exn curr).next next;
      let a = O.Ptr.node curr and b = O.Ptr.node next in
      let row = O.hazard_row g in
      O.advance g prev curr next;
      check_bool "row unchanged" true (row = O.hazard_row g);
      check_bool "rotated" true
        (same_opt (O.Ptr.node prev) a
        && same_opt (O.Ptr.node curr) b
        && O.Ptr.is_null next);
      let three () =
        O.advance g prev curr next;
        O.advance g prev curr next;
        O.advance g prev curr next
      in
      check_zero "advance" three;
      check_bool "row still unchanged" true (row = O.hazard_row g));
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* A zero-count node rotated out by [advance] stays published until the
   next [load] into [next]; that load claims it, and the next scan frees
   it because nothing publishes it any more. *)
let test_advance_rotated_out_freed () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 1);
  let tid = Registry.tid () in
  O.with_guard o (fun g ->
      let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
      let z = O.alloc_node_into g prev Memdom.Handle.fresh
                Memdom.Handle.fresh (mk o 0) in
      O.load g root curr;
      O.load g (O.Ptr.node_exn curr).next next;
      O.advance g prev curr next;
      O.scan o ~tid;
      check_bool "protected while rotated out" false
        (Memdom.Hdr.is_freed z.hdr);
      O.load g root next;
      O.scan o ~tid;
      check_bool "claimed by the load, freed by the scan" true
        (Memdom.Hdr.is_freed z.hdr));
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_int "flush leaves nothing live" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* The expired exit path of a guard neutralized after an [advance]
   releases each permuted handle's share exactly once. *)
let test_advance_then_neutralized () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 2);
  let tid = Registry.tid () in
  Reclaim.Neutralize.arm ();
  Fun.protect ~finally:Reclaim.Neutralize.disarm (fun () ->
      O.with_guard o (fun g ->
          let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
          O.load g root curr;
          O.load g (O.Ptr.node_exn curr).next next;
          O.advance g prev curr next;
          check_bool "fire" true
            (Reclaim.Neutralize.fire ~by:tid ~tid ~age:1 ())));
  O.with_guard o (fun g ->
      Array.iteri
        (fun i (u, shares) ->
          check_int (Printf.sprintf "slot %d unpublished" i) (-1) u;
          check_int (Printf.sprintf "slot %d unshared" i) 0 shares)
        (O.hazard_row g);
      for _ = 1 to Orc_core.Orc.max_haz - 1 do
        ignore (O.ptr g)
      done);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_int "no leak, no double free" 0 (Memdom.Alloc.live alloc)

(* [drop] unpublishes before guard exit: a scan that had to keep the
   unlinked node frees it right after the drop. *)
let test_drop_unpublishes () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 1);
  let tid = Registry.tid () in
  O.with_guard o (fun g ->
      let p = O.ptr g in
      O.load g root p;
      let n = O.Ptr.node_exn p in
      O.store_v g root Link.v_null;
      O.scan o ~tid;
      check_bool "pinned by the handle" false (Memdom.Hdr.is_freed n.hdr);
      O.drop g p;
      O.scan o ~tid;
      check_bool "freed after drop" true (Memdom.Hdr.is_freed n.hdr);
      check_bool "handle is null" true (O.Ptr.is_null p));
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* orc-hp reports the same stats record as orc: the retires and the HP
   scans (with the slots they visit) count, while the PTP-only
   handovers and cascades stay 0. *)
let test_stats_after_churn () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.ptr g in
      for k = 1 to 200 do
        ignore (O.alloc_node_into g p Memdom.Handle.fresh
                  Memdom.Handle.fresh (mk o k));
        O.store_v g root (O.Ptr.view p)
      done;
      O.store_v g root Link.v_null);
  O.flush o;
  let s = O.stats o in
  check_bool "retires counted" true (s.O.retires > 0);
  check_bool "scans counted" true (s.O.scans > 0);
  check_bool "scan slots counted" true (s.O.scan_slots > 0);
  check_int "no handovers" 0 s.O.handovers;
  check_int "no cascades" 0 s.O.cascades;
  check_int "nothing unreclaimed" 0 (O.unreclaimed o);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* The count-transition cases of the orc suite, over this backend. *)
module C =
  Test_orc.Counts
    (Orc_core.Orc.Make_hp (Test_orc.ON))
    (struct
      let eager = false
    end)

let suite =
  [
    ( "orc-hp",
      [
        Alcotest.test_case "root link keeps alive" `Quick
          test_root_link_keeps_alive;
        Alcotest.test_case "local ref pins" `Quick test_local_ref_pins;
        Alcotest.test_case "reinsertion survives" `Quick
          test_reinsertion_survives;
        Alcotest.test_case "long chain cascade (iterative)" `Slow
          test_long_chain_cascade_iterative;
        Alcotest.test_case "concurrent stress, no UAF, no leak" `Slow
          test_concurrent_stress;
        Alcotest.test_case "advance permutes handles only" `Quick
          test_advance_permutes_only;
        Alcotest.test_case "advance: rotated-out node freed" `Quick
          test_advance_rotated_out_freed;
        Alcotest.test_case "advance then neutralized: indexes intact" `Quick
          test_advance_then_neutralized;
        Alcotest.test_case "drop unpublishes before guard exit" `Quick
          test_drop_unpublishes;
        Alcotest.test_case "stats after churn and flush" `Quick
          test_stats_after_churn;
        Alcotest.test_case "cas count transitions" `Quick C.test_cas_counts;
        Alcotest.test_case "failed cas moves nothing" `Quick
          C.test_cas_failure_no_count_change;
        Alcotest.test_case "store_v retarget moves both counts" `Quick
          C.test_store_retarget;
        Alcotest.test_case "ptr rotation keeps protection" `Quick
          C.test_ptr_rotation;
        Alcotest.test_case "load checks a replaced target while published"
          `Quick C.test_load_checks_while_published;
      ] );
  ]
