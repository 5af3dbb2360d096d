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
        let node = O.alloc_node_into g p Memdom.Handle.fresh
                     Memdom.Handle.fresh (mk o i) in
        O.store_v g node.next (O.Ptr.view q);
        O.store_v g root (O.v_ptr o node)
      done);
  check_int "chain allocated" n (Memdom.Alloc.live alloc);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  check_int "entire chain reclaimed" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* The destructor frees a node before it drops the node's outgoing
   links, so in a chain drop each node's Free precedes its child's
   Retire: the retire→free window does not include the cascade. *)
let test_chain_drop_frees_before_child_retire () =
  let sink = Obs.Sink.make ~capacity:(1 lsl 10) () in
  let alloc = Memdom.Alloc.create ~sink "orc-free-first" in
  let o = O.create alloc in
  let root = Link.make_in (O.arena o) Link.Null in
  let nodes =
    O.with_guard o (fun g ->
        let p = O.ptr g and q = O.ptr g in
        List.map
          (fun i ->
            O.load g root q;
            let node = O.alloc_node_into g p Memdom.Handle.fresh
                         Memdom.Handle.fresh (mk o i) in
            O.store_v g node.next (O.Ptr.view q);
            O.store_v g root (O.v_ptr o node);
            node)
          [ 3; 2; 1 ])
  in
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  check_int "chain reclaimed" 0 (Memdom.Alloc.live alloc);
  let events = List.concat_map Array.to_list (Obs.Sink.events sink) in
  let index kind (n : onode) =
    let rec go i = function
      | [] -> Alcotest.failf "no %s event" (Obs.Event.name kind)
      | (e : Obs.Event.t) :: rest ->
          if e.kind = kind && e.uid = n.hdr.Memdom.Hdr.uid then i
          else go (i + 1) rest
    in
    go 0 events
  in
  (* [nodes] is built tail first: 3, 2, 1 with root -> 1 -> 2 -> 3 *)
  match nodes with
  | [ n3; n2; n1 ] ->
      check_bool "1 freed before 2 retired" true
        (index Obs.Event.Free n1 < index Obs.Event.Retire n2);
      check_bool "2 freed before 3 retired" true
        (index Obs.Event.Free n2 < index Obs.Event.Retire n3);
      check_bool "3 retired before freed" true
        (index Obs.Event.Retire n3 < index Obs.Event.Free n3)
  | _ -> assert false

(* Window's find protects a node's successor only to step to it or to
   unlink the node: a find that stops at a node reads its [next] word
   for the mark and publishes nothing for the successor. *)
module Ml = Ds.Orc_michael_list
module Lo = Orc_core.Orc.Make (Ml.N)
module Lw = Ml.Window (Lo)
module Ll = Ml.Impl (Lo)

let test_find_protects_successor_only_to_move () =
  let l = Ll.create () in
  List.iter (fun k -> ignore (Ll.add l k)) [ 1; 2; 3 ];
  let after (n : Ml.node) =
    Option.get (Link.target (Link.get (Ml.next_link n)))
  in
  let n1 = Option.get (Link.target (Link.get (Ll.anchor l))) in
  let n2 = after n1 in
  let n3 = after n2 in
  let tail = after n3 in
  let restarts = Atomic.make 0 in
  (* stop node, and which of [probes] the hazard row publishes *)
  let find key probes =
    Lo.with_guard (Ll.core l) (fun g ->
        let prev = Lo.ptr g and curr = Lo.ptr g and next = Lo.ptr g in
        ignore (Lw.find restarts g (Ll.anchor l) key ~prev ~curr ~next);
        let row = Lo.hazard_row g in
        let published (n : Ml.node) =
          Array.exists (fun (u, _) -> u = n.Ml.hdr.Memdom.Hdr.uid) row
        in
        (Lo.Ptr.node_exn curr, List.map published probes))
  in
  let stop, pub = find 2 [ n2; n3 ] in
  check_bool "stops at 2" true (stop == n2);
  check_bool "stop node published, its successor not" true
    (pub = [ true; false ]);
  let stop, pub = find 3 [ n2; n3; tail ] in
  check_bool "steps to 3" true (stop == n3);
  check_bool "stepped-to node published, the stop's successor not" true
    (pub = [ true; true; false ]);
  (* mark 2 without unlinking it: the find for 2 must protect 3 to
     unlink 2, and then stops at 3 *)
  Lo.with_guard (Ll.core l) (fun g ->
      let v = Link.view (Ml.next_link n2) in
      check_bool "marked 2" true
        (Lo.cas_v g (Ml.next_link n2) ~expected:v ~desired:(Link.v_mark v)));
  let stop, pub = find 2 [ n3 ] in
  check_bool "unlinked 2 and stopped at 3" true (stop == n3);
  check_bool "the unlinked node's successor published" true (pub = [ true ]);
  check_bool "2 gone" true (Ll.to_list l = [ 1; 3 ]);
  check_int "no restarts" 0 (Atomic.get restarts);
  Ll.destroy l;
  check_int "no leak" 0 (Memdom.Alloc.live (Ll.alloc l))

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
          let node = O.alloc_node_into g p Memdom.Handle.fresh
                       Memdom.Handle.fresh (mk o i) in
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
    let node = O.alloc_node_into g p Memdom.Handle.fresh
                 Memdom.Handle.fresh (mk o i) in
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
      let z = O.alloc_node_into g prev Memdom.Handle.fresh
                Memdom.Handle.fresh (mk o 0) in
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
                let n = O.alloc_node_into g p Memdom.Handle.fresh
                          Memdom.Handle.fresh (mk o v) in
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

(* {2 Type-stable node recycling (Pool mode)}

   The Michael-list node ([Util.Hooked]), whose record a Pool
   allocation re-initialises in place when it takes the record's arena
   slot back. *)

module Om = Orc_core.Orc.Make (Hooked)

let stamp (v : Ml.node Link.view) = (v :> int) lsr 27

(* One life: a never-linked node is freed by its handle at guard exit,
   which releases its slot after the destructor's link drops; the next
   life's allocation takes the slot back with the same record.  A view
   of the link taken in an earlier life never [view_eq]s a later one,
   and a CAS expecting it fails: the re-initialiser writes the link back
   to [Null] under the next stamp instead of resetting the word. *)
let test_recycled_link_stamps () =
  let alloc = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "orc-recycle" in
  let o = Om.create alloc in
  let tail_root = ref None and first = ref None and views = ref [] in
  Om.with_guard o (fun g ->
      let t = Om.alloc_node_into g (Om.ptr g) Ml.make_node Ml.renew_node 0 in
      tail_root := Some (Om.new_link_v g (Om.v_ptr o t), t));
  let root, tail = Option.get !tail_root in
  for life = 1 to 20 do
    Om.with_guard o (fun g ->
        let n =
          Om.alloc_node_into g (Om.ptr g) Ml.make_node Ml.renew_node life
        in
        (match !first with
        | None -> first := Some n
        | Some f -> check_bool "the same record, re-initialised" true (n == f));
        check_int "ord re-initialised" life n.Ml.ord;
        let l = Ml.next_link n in
        check_bool "link back to Null" true (Link.v_is_null (Link.view l));
        Om.store_v g l (Om.v_ptr o tail);
        let v = Link.view l in
        List.iter
          (fun old ->
            check_bool "no earlier life's view matches" false
              (Link.view_eq old v);
            check_bool "stamps grow across lives" true (stamp old < stamp v);
            check_bool "a CAS expecting it fails" false
              (Link.cas_v l old Link.v_null))
          !views;
        views := v :: !views)
  done;
  check_int "every life after the first re-used the record" 19
    (Memdom.Alloc.node_reuses alloc);
  Om.release_roots o [ root ];
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* System mode never re-issues a record: each life builds its own, the
   freed one stays freed, and touching it still raises — even though
   its arena slot is re-used. *)
let test_system_never_reissues () =
  let alloc = Memdom.Alloc.create "orc-recycle-sys" in
  let o = Om.create alloc in
  let lives =
    List.init 10 (fun life ->
        Om.with_guard o (fun g ->
            Om.alloc_node_into g (Om.ptr g) Ml.make_node Ml.renew_node life))
  in
  List.iteri
    (fun i n ->
      List.iteri
        (fun j m -> if i < j then check_bool "a record per life" false (n == m))
        lives;
      check_bool "freed" true (Memdom.Hdr.is_freed n.Ml.hdr);
      match Ml.ord_of n with
      | _ -> Alcotest.fail "a stale access to a freed node did not raise"
      | exception Memdom.Hdr.Use_after_free _ -> ())
    lives;
  check_int "no record re-used" 0 (Memdom.Alloc.node_reuses alloc);
  check_int "one slot served every life" 1
    (Link.arena_capacity (Om.arena o));
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* A node recycled between a loader's deref and its publish: the hook
   fires inside [load]'s uid read, where another domain unlinks the
   node, frees it, re-uses its record for a new node under a new uid
   and links that back in.  [load] must not keep the stale protection:
   its validation fails, it retries, and it ends protecting the new
   life under the new uid and the link's current word. *)
let test_recycled_between_deref_and_publish () =
  let alloc = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "orc-recycle-load" in
  let o = Om.create alloc in
  let root = ref None in
  Om.with_guard o (fun g ->
      let n = Om.alloc_node_into g (Om.ptr g) Ml.make_node Ml.renew_node 1 in
      root := Some (Om.new_link_v g (Om.v_ptr o n), n));
  let root, n = Option.get !root in
  let old_uid = n.Ml.hdr.Memdom.Hdr.uid and before = Link.view root in
  let recycle () =
    Domain.join
      (Domain.spawn (fun () ->
           Registry.with_tid (fun _ ->
               Om.with_guard o (fun g -> Om.store_v g root Link.v_null);
               Om.with_guard o (fun g ->
                   let m =
                     Om.alloc_node_into g (Om.ptr g) Ml.make_node
                       Ml.renew_node 2
                   in
                   Om.store_v g root (Om.v_ptr o m)))))
  in
  Om.with_guard o (fun g ->
      let p = Om.ptr g in
      hdr_hook := Some recycle;
      Om.load g root p;
      check_bool "the hook fired" true (!hdr_hook = None);
      let m = Om.Ptr.node_exn p in
      check_bool "the record was recycled" true (m == n);
      check_int "as the new node" 2 m.Ml.ord;
      let new_uid = m.Ml.hdr.Memdom.Hdr.uid in
      check_bool "under a new uid" true (new_uid <> old_uid);
      check_bool "the link was rewritten" false
        (Link.view_eq before (Link.view root));
      check_bool "the handle holds the current word" true
        (Link.view_eq (Om.Ptr.view p) (Link.view root));
      check_bool "the new uid is published" true
        (Array.exists (fun (u, _) -> u = new_uid) (Om.hazard_row g));
      check_bool "the stale uid is not" false
        (Array.exists (fun (u, _) -> u = old_uid) (Om.hazard_row g)));
  Om.release_roots o [ root ];
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
        Alcotest.test_case "chain drop frees before the child retires"
          `Quick test_chain_drop_frees_before_child_retire;
        Alcotest.test_case "find protects a successor only to move" `Quick
          test_find_protects_successor_only_to_move;
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
        Alcotest.test_case "recycled record: link stamps stay monotone"
          `Quick test_recycled_link_stamps;
        Alcotest.test_case "System never re-issues a record" `Quick
          test_system_never_reissues;
        Alcotest.test_case "recycled between deref and publish: load retries"
          `Quick test_recycled_between_deref_and_publish;
      ] );
  ]
