(* Unit, property and stress tests for OrcGC itself (Algorithms 3–7). *)

open Util
open Atomicx

type onode = { hdr : Memdom.Hdr.t; value : int; next : onode Link.t }

module ON = struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end

module O = Orc_core.Orc.Make (ON)

let fresh () =
  let alloc = Memdom.Alloc.create "orc-test" in
  (alloc, O.create alloc)

let mk o v hdr = { hdr; value = v; next = Link.make_in (O.arena o) Link.Null }

let read_value n =
  Memdom.Hdr.check_access n.hdr;
  n.value

(* A node allocated but never linked anywhere is reclaimed when its last
   local reference dies at guard exit — the fully automatic path. *)
let test_unlinked_alloc_reclaimed () =
  let alloc, o = fresh () in
  let node =
    O.with_guard o (fun g ->
        let p = O.alloc_node g (mk o 1) in
        let n = O.Ptr.node_exn p in
        check_int "accessible inside guard" 1 (read_value n);
        n)
  in
  check_bool "freed at guard exit" true (Memdom.Hdr.is_freed node.hdr);
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* A hard link from a root keeps the object alive across guards; dropping
   the root reclaims it — no retire call anywhere. *)
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
  check_bool "freed after unlink" true (Memdom.Hdr.is_freed node.hdr);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* A local reference (Ptr) pins a zero-count object; the object is
   reclaimed only when the guard scope ends — the orc_ptr contract. *)
let test_local_ref_pins () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  let node = ref None in
  O.with_guard o (fun g ->
      let p = O.alloc_node g (mk o 5) in
      O.store_v g root (O.Ptr.view p);
      let q = O.ptr g in
      O.load g root q;
      node := O.Ptr.node q;
      (* unlink: count drops to zero but q still protects it *)
      O.store_v g root Link.v_null;
      let n = Option.get !node in
      check_bool "pinned by local ref" false (Memdom.Hdr.is_freed n.hdr);
      check_int "still readable" 5 (read_value n));
  let n = Option.get !node in
  check_bool "reclaimed at guard exit" true (Memdom.Hdr.is_freed n.hdr);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* Obstacle 3 of §2: a node taken out of the structure and re-inserted
   while a local reference exists must not be reclaimed. *)
let test_reinsertion_survives () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.alloc_node g (mk o 9) in
      O.store_v g root (O.Ptr.view p);
      let q = O.ptr g in
      O.load g root q;
      O.store_v g root Link.v_null;
      (* temporarily unreachable, possibly already marked retired *)
      O.store_v g root (O.Ptr.view q));
  (match Link.target (Link.get root) with
  | Some n ->
      check_bool "alive after reinsertion" false (Memdom.Hdr.is_freed n.hdr);
      check_int "value intact" 9 (read_value n)
  | None -> Alcotest.fail "root lost node");
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* Dropping the head of a long chain must cascade through the recursive
   list, not the program stack (paper §4.1). *)
let test_long_chain_cascade () =
  let alloc, o = fresh () in
  let n = 50_000 in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.ptr g in
      let q = O.ptr g in
      for i = 1 to n do
        (* push-front: node.next := old head; root := node *)
        O.load g root q;
        let node = O.alloc_node_into g p (mk o i) in
        O.store_v g node.next (O.Ptr.view q);
        O.store_v g root (O.v_ptr o node)
      done);
  check_int "chain allocated" n (Memdom.Alloc.live alloc);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  check_int "entire chain reclaimed" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* The count-transition cases, over either backend.  [B.eager]: the
   backend frees a claimed node where its last protection ends (PTP);
   otherwise (HP) the node waits for a scan, which [settle] forces
   before each count of live objects. *)
module Counts
    (O : Orc_core.Orc.S with type node = onode)
    (B : sig
      val eager : bool
    end) =
struct
  let fresh () =
    let alloc = Memdom.Alloc.create (O.name ^ "-test") in
    (alloc, O.create alloc)

  let mk o v hdr = { hdr; value = v; next = Link.make_in (O.arena o) Link.Null }
  let settle o = if not B.eager then O.flush o

  (* cas transitions: a mark change on the same target must not disturb the
     count, while retargeting moves both counts. *)
  let test_cas_counts () =
    let alloc, o = fresh () in
    let root = Link.make_in (O.arena o) Link.Null in
    O.with_guard o (fun g ->
        let a = O.alloc_node g (mk o 1) in
        let b = O.alloc_node g (mk o 2) in
        O.store_v g root (O.Ptr.view a);
        let an = O.Ptr.node_exn a and bn = O.Ptr.node_exn b in
        (* mark transition on same target *)
        let v = Link.view root in
        check_bool "mark cas" true
          (O.cas_v g root ~expected:v ~desired:(Link.v_mark v));
        check_bool "a alive" false (Memdom.Hdr.is_freed an.hdr);
        (* retarget to b: a loses its only hard link *)
        let v = Link.view root in
        check_bool "retarget cas" true
          (O.cas_v g root ~expected:v ~desired:(O.Ptr.view b));
        check_bool "b alive" false (Memdom.Hdr.is_freed bn.hdr);
        check_bool "a pinned by local ref" false (Memdom.Hdr.is_freed an.hdr));
    (* guard gone: a has no links and no local refs *)
    settle o;
    check_int "only b remains" 1 (Memdom.Alloc.live alloc);
    O.with_guard o (fun g -> O.store_v g root Link.v_null);
    settle o;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  (* A failed cas must not move any count. *)
  let test_cas_failure_no_count_change () =
    let alloc, o = fresh () in
    let root = Link.make_in (O.arena o) Link.Null in
    O.with_guard o (fun g ->
        let a = O.alloc_node g (mk o 1) in
        let b = O.alloc_node g (mk o 2) in
        O.store_v g root (O.Ptr.view a);
        check_bool "cas on another target fails" false
          (O.cas_v g root ~expected:(O.Ptr.view b) ~desired:Link.v_null);
        (* stale expected: a word read before a rewrite of the same value
           never matches again *)
        let stale = Link.view root in
        O.store_v g root (O.Ptr.view a);
        check_bool "stale cas fails" false
          (O.cas_v g root ~expected:stale ~desired:Link.v_null));
    settle o;
    check_int "a still live via root" 1 (Memdom.Alloc.live alloc);
    O.with_guard o (fun g -> O.store_v g root Link.v_null);
    settle o;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  (* A store over a linked target moves both counts: the old target's
     down (freed once unprotected), the new one's up. *)
  let test_store_retarget () =
    let alloc, o = fresh () in
    let root = Link.make_in (O.arena o) Link.Null in
    O.with_guard o (fun g ->
        let a = O.alloc_node g (mk o 1) in
        let b = O.alloc_node g (mk o 2) in
        O.store_v g root (O.Ptr.view a);
        O.store_v g root (O.Ptr.view b);
        check_bool "root holds b" true
          (Link.v_target_exn root (Link.view root) == O.Ptr.node_exn b));
    settle o;
    check_int "only b remains" 1 (Memdom.Alloc.live alloc);
    O.with_guard o (fun g -> O.store_v g root Link.v_null);
    settle o;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  (* Ptr assignment in both index directions (Algorithm 7): a rotation
     prev <- curr <- next, repeated, must keep protection sound. *)
  let test_ptr_rotation () =
    let alloc, o = fresh () in
    let root = Link.make_in (O.arena o) Link.Null in
    O.with_guard o (fun g ->
        (* build a 10-node chain *)
        let p = O.ptr g and q = O.ptr g in
        for i = 1 to 10 do
          O.load g root q;
          let node = O.alloc_node_into g p (mk o i) in
          O.store_v g node.next (O.Ptr.view q);
          O.store_v g root (O.v_ptr o node)
        done);
    O.with_guard o (fun g ->
        let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
        O.load g root curr;
        let steps = ref 0 in
        let rec walk () =
          match O.Ptr.node curr with
          | None -> ()
          | Some n ->
              incr steps;
              ignore (read_value n);
              O.load g n.next next;
              O.assign g prev curr;
              O.assign g curr next;
              walk ()
        in
        walk ();
        check_int "walked the chain" 10 !steps);
    O.with_guard o (fun g -> O.store_v g root Link.v_null);
    settle o;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  (* The zero-count check of a replaced target runs while the target is
     still published.  A never-linked node is claimed by the [load] that
     overwrites its handle.  Under PTP the scan finds this very slot and
     parks the node there (one handover), and the slot's release at guard
     exit frees it; under HP it waits on the retired list.  Checked after
     the overwrite instead, a pooled node could already be freed and its
     header recycled under the check. *)
  let test_load_checks_while_published () =
    let alloc, o = fresh () in
    let root = Link.make_in (O.arena o) Link.Null in
    O.with_guard o (fun g ->
        let p = O.alloc_node g (mk o 1) in
        let s0 = O.stats o in
        O.load g root p;
        let s1 = O.stats o in
        check_int "claimed by the load" (s0.O.retires + 1) s1.O.retires;
        check_int "claimed while published"
          (s0.O.handovers + if B.eager then 1 else 0)
          s1.O.handovers;
        check_int "parked on the slot" 1 (Memdom.Alloc.live alloc));
    settle o;
    check_int "freed at guard exit" 0 (Memdom.Alloc.live alloc);
    check_int "nothing pending" 0 (O.unreclaimed o)
end

module C = Counts (O) (struct
  let eager = true
end)

(* A chain root -> 1 -> 2 -> ... -> n built through orc links. *)
let build_chain o g root n =
  let p = O.ptr g and q = O.ptr g in
  for i = n downto 1 do
    O.load g root q;
    let node = O.alloc_node_into g p (mk o i) in
    O.store_v g node.next (O.Ptr.view q);
    O.store_v g root (O.v_ptr o node)
  done

let same_opt a b =
  match a, b with Some x, Some y -> x == y | None, None -> true | _ -> false

(* [advance] is a pure permutation of handle contents: the hazard row
   (published uids and index share counts) is untouched, the handles
   rotate prev <- curr <- next <- prev, and no word is allocated. *)
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
      check_bool "prev took curr" true (same_opt (O.Ptr.node prev) a);
      check_bool "curr took next" true (same_opt (O.Ptr.node curr) b);
      check_bool "next took prev's null" true (O.Ptr.is_null next);
      (* three hops are the identity, so the window can be measured
         repeatedly without changing what it measures *)
      let three () =
        O.advance g prev curr next;
        O.advance g prev curr next;
        O.advance g prev curr next
      in
      check_zero "advance" three;
      check_bool "row still unchanged" true (row = O.hazard_row g);
      check_bool "identity after three hops" true
        (same_opt (O.Ptr.node prev) a && same_opt (O.Ptr.node curr) b);
      Alcotest.check_raises "aliased handles rejected"
        (Invalid_argument "Orc.advance: handles must be distinct") (fun () ->
          O.advance g prev curr prev));
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* A zero-count node rotated out by [advance] stays protected in the
   slot [next] now names; the next [load] into [next] claims it and the
   guard exit frees it. *)
let test_advance_rotated_out_freed () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 1);
  O.with_guard o (fun g ->
      let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
      let z = O.alloc_node_into g prev (mk o 0) in
      O.load g root curr;
      O.load g (O.Ptr.node_exn curr).next next;
      O.advance g prev curr next;
      check_bool "next holds the rotated-out node" true
        (same_opt (O.Ptr.node next) (Some z));
      let h0 = (O.stats o).O.handovers in
      O.load g root next;
      check_int "claimed by the load" (h0 + 1) (O.stats o).O.handovers;
      check_bool "still protected until guard exit" false
        (Memdom.Hdr.is_freed z.hdr));
  check_int "rotated-out node freed at guard exit" 1 (Memdom.Alloc.live alloc);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_int "flush leaves nothing live" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* A guard neutralized after an [advance] takes the expired exit path,
   which releases each handle's index share: the permuted handles must
   still own exactly one share each, so the next guard finds a clean
   row and every index free. *)
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

(* [drop] frees a node parked on the caller's own slot before the guard
   ends, and leaves a null handle that can load again. *)
let test_drop_frees_self_parked () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 1);
  O.with_guard o (fun g ->
      let p = O.ptr g in
      O.load g root p;
      let n = O.Ptr.node_exn p in
      let h0 = (O.stats o).O.handovers in
      O.store_v g root Link.v_null;
      check_int "self-parked" (h0 + 1) (O.stats o).O.handovers;
      check_bool "pinned by the handle" false (Memdom.Hdr.is_freed n.hdr);
      O.drop g p;
      check_bool "freed by drop" true (Memdom.Hdr.is_freed n.hdr);
      check_bool "handle is null" true (O.Ptr.is_null p);
      O.load g root p;
      check_bool "handle reloads" true (O.Ptr.is_null p));
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* [unlink_v] ends the victim's protection between the CAS's two count
   moves, so the victim is freed by the unlink itself — never handed
   over to the caller's own slot — and the handle is left null.  A
   failed unlink moves nothing. *)
let test_unlink_frees_victim () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 2);
  O.with_guard o (fun g ->
      let curr = O.ptr g and next = O.ptr g and other = O.ptr g in
      O.load g root curr;
      O.load g (O.Ptr.node_exn curr).next next;
      O.load g (O.Ptr.node_exn curr).next other;
      let a = O.Ptr.node_exn curr in
      check_bool "stale expectation fails" false
        (O.unlink_v g root other ~desired:(O.Ptr.view next));
      check_bool "failed unlink keeps the handle" false (O.Ptr.is_null other);
      let h0 = (O.stats o).O.handovers in
      check_bool "unlinked" true
        (O.unlink_v g root curr ~desired:(O.Ptr.view next));
      check_int "no self-handover" h0 (O.stats o).O.handovers;
      check_bool "victim freed at the unlink" true (Memdom.Hdr.is_freed a.hdr);
      check_bool "victim handle is null" true (O.Ptr.is_null curr));
  check_int "successor still linked" 1 (Memdom.Alloc.live alloc);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* _orc word layout properties. *)
let prop_ocnt_ignores_sequence =
  qtest "ocnt ignores the sequence field"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range (-1000) 1000))
    (fun (s, c) ->
      let word =
        (s * Orc_core.Orc.seq_unit) + Orc_core.Orc.orc_zero + c
      in
      Orc_core.Orc.ocnt word = Orc_core.Orc.orc_zero + c)

let prop_bretired_flag_independent =
  qtest "BRETIRED commutes with count in ocnt"
    QCheck2.Gen.(int_range (-1000) 1000)
    (fun c ->
      let base = Orc_core.Orc.orc_zero + c in
      Orc_core.Orc.ocnt (base + Orc_core.Orc.bretired)
      = base + Orc_core.Orc.bretired)

(* Randomized single-threaded model check: a root table driven by random
   store/cas/load ops must end with live = reachable. *)
let prop_orc_model =
  qtest ~count:60 "random ops conserve live = reachable"
    QCheck2.Gen.(list_size (int_range 20 120) (pair (int_range 0 3) small_nat))
    (fun ops ->
      let alloc, o = fresh () in
      let roots = Array.init 4 (fun _ -> Link.make_in (O.arena o) Link.Null) in
      O.with_guard o (fun g ->
          let p = O.ptr g in
          List.iter
            (fun (r, v) ->
              let root = roots.(r) in
              if v land 1 = 0 then begin
                let n = O.alloc_node_into g p (mk o v) in
                O.store_v g root (O.v_ptr o n)
              end
              else O.store_v g root Link.v_null)
            ops);
      let reachable =
        Array.fold_left
          (fun acc r ->
            match Link.get r with Link.Ptr _ -> acc + 1 | _ -> acc)
          0 roots
      in
      let ok = Memdom.Alloc.live alloc = reachable in
      O.with_guard o (fun g ->
          Array.iter (fun r -> O.store_v g r Link.v_null) roots);
      ok && Memdom.Alloc.live alloc = 0)

(* The flagship stress test: concurrent domains hammer a table of root
   links with loads, stores and cas, reading values under protection.
   Any unsound reclamation raises Use_after_free; any missed reclamation
   shows up in the final leak check. *)
let test_concurrent_stress () =
  let alloc, o = fresh () in
  let nslots = 8 in
  let iters = 2_500 in
  let roots = Array.init nslots (fun _ -> Link.make_in (O.arena o) Link.Null) in
  run_domains_exn 4 (fun ~i ~tid:_ ->
      let rng = Rng.create ((i + 1) * 104729) in
      for k = 1 to iters do
        let root = roots.(Rng.int rng nslots) in
        O.with_guard o (fun g ->
            match Rng.int rng 4 with
            | 0 ->
                (* replace with fresh node *)
                let p = O.alloc_node g (mk o k) in
                O.store_v g root (O.Ptr.view p)
            | 1 -> O.store_v g root Link.v_null
            | 2 ->
                (* cas current -> fresh *)
                let q = O.ptr g in
                O.load g root q;
                let p = O.alloc_node g (mk o k) in
                ignore
                  (O.cas_v g root ~expected:(O.Ptr.view q)
                     ~desired:(O.Ptr.view p))
            | _ ->
                (* read *)
                let q = O.ptr g in
                O.load g root q;
                (match O.Ptr.node q with
                | Some n -> ignore (read_value n)
                | None -> ()))
      done);
  (* quiesce and drain *)
  O.with_guard o (fun g ->
      Array.iter (fun r -> O.store_v g r Link.v_null) roots);
  O.flush o;
  check_int "no leak after stress" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* Cross-thread handover: a reader pins a node while a writer unlinks it;
   the reader's guard exit must reclaim it. *)
let test_cross_thread_handover () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.alloc_node g (mk o 1) in
      O.store_v g root (O.Ptr.view p));
  let pinned = Atomic.make false in
  let release = Atomic.make false in
  run_domains_exn 2 (fun ~i ~tid:_ ->
      if i = 0 then
        (* reader: pin, signal, hold until released *)
        O.with_guard o (fun g ->
            let q = O.ptr g in
            O.load g root q;
            Atomic.set pinned true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            match O.Ptr.node q with
            | Some n -> check_int "readable while pinned" 1 (read_value n)
            | None -> Alcotest.fail "reader lost the node")
      else begin
        (* writer: wait for the pin, unlink, then release the reader *)
        while not (Atomic.get pinned) do
          Domain.cpu_relax ()
        done;
        O.with_guard o (fun g -> O.store_v g root Link.v_null);
        check_int "node survives writer guard" 1 (Memdom.Alloc.live alloc);
        Atomic.set release true
      end);
  (* reader's guard has exited: the handover must have been reclaimed *)
  check_int "reclaimed after reader exit" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* {2 Guard and handle storage} *)

(* The slots a guard's row publishes up to the watermark, padded with
   empty, unshared slots to [n]. *)
let row_padded g n =
  let row = O.hazard_row g in
  Array.init n (fun i -> if i < Array.length row then row.(i) else (-1, 0))

let uid_of n = n.hdr.Memdom.Hdr.uid

(* An inner guard on the same tid takes its handles and hazard indexes
   after the outer guard's, leaves the outer handle's view and slot
   alone, and on exit releases only its own. *)
let test_nested_guards () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 2);
  O.with_guard o (fun g ->
      let p = O.ptr g in
      O.load g root p;
      let n1 = O.Ptr.node_exn p and v1 = O.Ptr.view p in
      let outer = row_padded g Orc_core.Orc.max_haz in
      O.with_guard o (fun gi ->
          let q = O.ptr gi and r = O.ptr gi in
          O.load gi n1.next q;
          O.assign gi r q;
          let inner = row_padded gi Orc_core.Orc.max_haz in
          check_bool "outer slot still publishes its node" true
            (Array.exists (fun (u, k) -> u = uid_of n1 && k = 1) inner);
          check_bool "inner handle published its own node" true
            (Array.exists
               (fun (u, _) -> u = uid_of (O.Ptr.node_exn q))
               inner);
          Alcotest.check_raises "outer guard cannot make a handle now"
            (Invalid_argument
               "Frame.handle: the guard is not the innermost open guard")
            (fun () -> ignore (O.ptr g)));
      check_bool "outer view intact" true (Link.view_eq v1 (O.Ptr.view p));
      check_bool "inner exit released only its own slots" true
        (outer = row_padded g Orc_core.Orc.max_haz);
      (* the outer guard's next handle reuses the inner's storage *)
      let q = O.ptr g in
      O.load g n1.next q;
      check_int "outer handle reads on" 2 (read_value (O.Ptr.node_exn q)));
  O.with_guard o (fun g ->
      Array.iter
        (fun (u, k) ->
          check_int "unpublished" (-1) u;
          check_int "unshared" 0 k)
        (O.hazard_row g);
      O.store_v g root Link.v_null);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* An exception leaving a guard brings every slot that guard used back
   to empty and re-raises the exception itself: an inner guard's
   exception leaves the outer guard's slot alone, and the outer one's
   empties the row. *)
let test_guard_exception_releases () =
  let alloc, o = fresh () in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g -> build_chain o g root 2);
  let boom = Failure "boom" in
  (match
     O.with_guard o (fun g ->
         let p = O.ptr g in
         O.load g root p;
         let outer = row_padded g Orc_core.Orc.max_haz in
         (match
            O.with_guard o (fun gi ->
                let q = O.ptr gi in
                O.load gi (O.Ptr.node_exn p).next q;
                raise Exit)
          with
         | () -> Alcotest.fail "inner guard returned"
         | exception Exit -> ());
         check_bool "inner slots empty, outer slot kept" true
           (outer = row_padded g Orc_core.Orc.max_haz);
         raise boom)
   with
  | () -> Alcotest.fail "guard returned"
  | exception e -> check_bool "the original exception" true (e == boom));
  O.with_guard o (fun g ->
      Array.iter
        (fun (u, k) ->
          check_int "unpublished" (-1) u;
          check_int "unshared" 0 k)
        (O.hazard_row g);
      O.store_v g root Link.v_null);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

let suite =
  [
    ( "orc",
      [
        Alcotest.test_case "unlinked alloc reclaimed" `Quick
          test_unlinked_alloc_reclaimed;
        Alcotest.test_case "root link keeps alive" `Quick
          test_root_link_keeps_alive;
        Alcotest.test_case "local ref pins" `Quick test_local_ref_pins;
        Alcotest.test_case "reinsertion survives (obstacle 3)" `Quick
          test_reinsertion_survives;
        Alcotest.test_case "long chain cascade, constant stack" `Slow
          test_long_chain_cascade;
        Alcotest.test_case "cas count transitions" `Quick C.test_cas_counts;
        Alcotest.test_case "failed cas moves nothing" `Quick
          C.test_cas_failure_no_count_change;
        Alcotest.test_case "store_v retarget moves both counts" `Quick
          C.test_store_retarget;
        Alcotest.test_case "ptr rotation keeps protection" `Quick
          C.test_ptr_rotation;
        Alcotest.test_case "advance permutes handles only" `Quick
          test_advance_permutes_only;
        Alcotest.test_case "load checks a replaced target while published"
          `Quick C.test_load_checks_while_published;
        Alcotest.test_case "advance: rotated-out node freed" `Quick
          test_advance_rotated_out_freed;
        Alcotest.test_case "advance then neutralized: indexes intact" `Quick
          test_advance_then_neutralized;
        Alcotest.test_case "drop frees a self-parked node" `Quick
          test_drop_frees_self_parked;
        Alcotest.test_case "unlink_v frees the victim at the unlink" `Quick
          test_unlink_frees_victim;
        prop_ocnt_ignores_sequence;
        prop_bretired_flag_independent;
        prop_orc_model;
        Alcotest.test_case "concurrent stress, no UAF, no leak" `Slow
          test_concurrent_stress;
        Alcotest.test_case "cross-thread handover" `Quick
          test_cross_thread_handover;
        Alcotest.test_case "nested guards keep the outer handles" `Quick
          test_nested_guards;
        Alcotest.test_case "an exception empties the guard's slots" `Quick
          test_guard_exception_releases;
      ] );
  ]
