(* Additional targeted tests: substrate extras (Stats, Padded), the
   reconstructed Turn queue's protocol corners, TBKP outcome exactness,
   NM-tree poisoning, and Orc pointer-handle properties. *)

open Util
open Atomicx

(* ------------------------------------------------------------------ *)
(* Memdom.Stats *)

let test_stats_snapshot_and_diff () =
  let a = Memdom.Alloc.create "stats" in
  let s0 = Memdom.Stats.take a in
  let hs = List.init 5 (fun _ -> Memdom.Alloc.hdr a ()) in
  List.iteri (fun i h -> if i < 2 then Memdom.Alloc.free a h) hs;
  let s1 = Memdom.Stats.take a in
  let d = Memdom.Stats.diff s0 s1 in
  check_int "allocated delta" 5 d.Memdom.Stats.allocated;
  check_int "freed delta" 2 d.Memdom.Stats.freed;
  check_int "live delta" 3 d.Memdom.Stats.live;
  check_int "peak over series" s1.Memdom.Stats.live
    (Memdom.Stats.series_peak [ s0; s1 ])

let test_stats_pp () =
  let a = Memdom.Alloc.create "pp" in
  let buf = Buffer.create 64 in
  Format.fprintf
    (Format.formatter_of_buffer buf)
    "%a@?" Memdom.Stats.pp (Memdom.Stats.take a);
  check_bool "mentions label" true
    (String.length (Buffer.contents buf) > 0)

(* ------------------------------------------------------------------ *)
(* Atomicx.Padded *)

let test_padded_semantics () =
  let arr = Padded.atomic_array 16 0 in
  check_int "length" 16 (Array.length arr);
  Array.iteri (fun i a -> Atomic.set a i) arr;
  Array.iteri (fun i a -> check_int "independent cells" i (Atomic.get a)) arr;
  let m = Padded.atomic_matrix 4 8 "x" in
  check_int "rows" 4 (Array.length m);
  Array.iter (fun row -> check_int "cols" 8 (Array.length row)) m;
  (* distinct atomics, not aliased *)
  Atomic.set m.(0).(0) "y";
  check_bool "no aliasing" true (Atomic.get m.(1).(0) = "x")

(* Half the address of a block (its pointer read as a tagged int):
   stable only for a major-heap block, which OCaml 5.1 never moves. *)
let half_addr (x : 'a) : int = Obj.magic (Obj.repr x)

(* After promotion and a full major cycle no two cells of an
   [atomic_array] share a 128-byte line (plain atomics end up 16 bytes
   apart). *)
let test_padded_spacing () =
  let arr = Padded.atomic_array 32 0 in
  Gc.full_major ();
  let addrs = Array.map half_addr arr in
  Array.sort compare addrs;
  let gap = ref max_int in
  for i = 1 to Array.length addrs - 1 do
    gap := min !gap (2 * (addrs.(i) - addrs.(i - 1)))
  done;
  check_bool (Printf.sprintf "closest cells %d bytes apart >= 128" !gap) true
    (!gap >= 128);
  Array.iteri (fun i a -> Atomic.set a i) arr;
  ignore (Atomic.fetch_and_add arr.(3) 10);
  check_int "cells still atomics" 13 (Atomic.get arr.(3))

(* ------------------------------------------------------------------ *)
(* Turn queue protocol corners *)

module Turn = Ds.Orc_turn_queue.Make (struct
  type t = int
end)

let test_turn_empty_polling_is_clean () =
  (* repeated dequeues on an empty queue allocate and reclaim empty
     markers; none may leak *)
  let q = Turn.create () in
  for _ = 1 to 200 do
    check_bool "empty" true (Turn.dequeue q = None)
  done;
  Turn.enqueue q 1;
  check_bool "then works" true (Turn.dequeue q = Some 1);
  Turn.destroy q;
  Turn.flush q;
  check_int "no leak from markers" 0 (Memdom.Alloc.live (Turn.alloc q))

let test_turn_interleaved_empty_and_items () =
  (* dequeuers racing between empty and non-empty states: the empty-path
     steal and the claim-release logic both get exercised *)
  let q = Turn.create () in
  let produced = 2_000 in
  let got = Atomic.make 0 in
  run_domains_exn 4 (fun ~i ~tid:_ ->
      if i = 0 then
        for k = 1 to produced do
          Turn.enqueue q k;
          if k land 7 = 0 then Domain.cpu_relax ()
        done
      else
        while Atomic.get got < produced do
          match Turn.dequeue q with
          | Some _ -> ignore (Atomic.fetch_and_add got 1)
          | None -> Domain.cpu_relax ()
        done);
  check_int "all items delivered" produced (Atomic.get got);
  Turn.destroy q;
  Turn.flush q;
  check_int "no leak" 0 (Memdom.Alloc.live (Turn.alloc q))

(* ------------------------------------------------------------------ *)
(* TBKP outcome exactness *)

module Tbkp = Ds.Orc_tbkp_list.Make ()

let test_tbkp_outcomes_are_exact () =
  (* n domains all add the same key, then all remove it: exactly one add
     and exactly one remove may succeed per round *)
  let s = Tbkp.create () in
  for round = 1 to 25 do
    let adds =
      run_domains 4 (fun ~i:_ ~tid:_ -> if Tbkp.add s 5 then 1 else 0)
    in
    check_int
      (Printf.sprintf "round %d: one successful add" round)
      1
      (List.fold_left ( + ) 0 adds);
    let removes =
      run_domains 4 (fun ~i:_ ~tid:_ -> if Tbkp.remove s 5 then 1 else 0)
    in
    check_int
      (Printf.sprintf "round %d: one successful remove" round)
      1
      (List.fold_left ( + ) 0 removes);
    check_bool "gone" false (Tbkp.contains s 5)
  done;
  Tbkp.destroy s;
  Tbkp.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Tbkp.alloc s))

let test_tbkp_mixed_same_key () =
  (* adds and removes of one key racing: conservation of successes —
     #successful-adds - #successful-removes = final presence *)
  let s = Tbkp.create () in
  let counts =
    run_domains 4 (fun ~i ~tid:_ ->
        let rng = Rng.create ((i + 1) * 523) in
        let a = ref 0 and r = ref 0 in
        for _ = 1 to 500 do
          if Rng.bool rng then (if Tbkp.add s 9 then incr a)
          else if Tbkp.remove s 9 then incr r
        done;
        (!a, !r))
  in
  let adds = List.fold_left (fun acc (a, _) -> acc + a) 0 counts in
  let removes = List.fold_left (fun acc (_, r) -> acc + r) 0 counts in
  let present = if Tbkp.contains s 9 then 1 else 0 in
  check_int "conservation" present (adds - removes);
  Tbkp.destroy s;
  Tbkp.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Tbkp.alloc s))

(* ------------------------------------------------------------------ *)
(* NM-tree: manual variant poisons excised regions *)

module Nm = Ds.Nm_tree.Make (Reclaim.Hp.Make)

let test_nm_poison_makes_searches_restart () =
  (* deep interleavings are probabilistic, but the poisoning machinery
     itself must at least keep heavy delete churn coherent and leak-free
     under concurrent searches *)
  let t = Nm.create () in
  for k = 1 to 400 do
    ignore (Nm.add t k)
  done;
  run_domains_exn 4 (fun ~i ~tid:_ ->
      let rng = Rng.create ((i + 1) * 271) in
      if i < 2 then
        for _ = 1 to 2_000 do
          let k = 1 + Rng.int rng 400 in
          if Rng.bool rng then ignore (Nm.remove t k) else ignore (Nm.add t k)
        done
      else
        for _ = 1 to 2_000 do
          ignore (Nm.contains t (1 + Rng.int rng 400))
        done);
  let l = Nm.to_list t in
  check_bool "coherent" true (List.sort_uniq compare l = l);
  Nm.destroy t;
  Nm.flush t;
  check_int "no leak" 0 (Memdom.Alloc.live (Nm.alloc t))

(* ------------------------------------------------------------------ *)
(* Orc pointer handles: deep assignment chains stay sound *)

type onode = { hdr : Memdom.Hdr.t; v : int; next : onode Link.t }

module O = Orc_core.Orc.Make (struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end)

let prop_ptr_assign_chains =
  qtest ~count:40 "random ptr assignment chains keep protection sound"
    QCheck2.Gen.(list_size (int_range 10 80) (int_range 0 5))
    (fun choices ->
      let alloc = Memdom.Alloc.create "ptr-prop" in
      let o = O.create alloc in
      let root = Link.make_in (O.arena o) Link.Null in
      O.with_guard o (fun g ->
          (* build a small ring of handles over a 3-node chain *)
          let mk v hdr =
            { hdr; v; next = Link.make_in (O.arena o) Link.Null }
          in
          let a = O.alloc_node g (mk 1) in
          let b = O.alloc_node g (mk 2) in
          let c = O.alloc_node g (mk 3) in
          O.store_v g (O.Ptr.node_exn a).next (O.Ptr.view b);
          O.store_v g (O.Ptr.node_exn b).next (O.Ptr.view c);
          O.store_v g root (O.Ptr.view a);
          let handles = [| O.ptr g; O.ptr g; O.ptr g; O.ptr g |] in
          List.iter
            (fun choice ->
              let h = handles.(choice land 3) in
              (match choice with
              | 0 | 1 | 2 -> O.load g root h
              | 3 -> O.assign g handles.(0) handles.(3)
              | 4 -> O.assign g handles.(3) handles.(1)
              | _ -> (
                  (* walk one step through a protected node *)
                  match O.Ptr.node h with
                  | Some n -> O.load g n.next handles.((choice + 1) land 3)
                  | None -> ()));
              (* every protected handle must be dereferenceable *)
              Array.iter
                (fun h ->
                  match O.Ptr.node h with
                  | Some n ->
                      Memdom.Hdr.check_access n.hdr (* must not raise *)
                  | None -> ())
                handles)
            choices);
      O.with_guard o (fun g -> O.store_v g root Link.v_null);
      O.flush o;
      Memdom.Alloc.live alloc = 0)

let suite =
  [
    ( "extras",
      [
        Alcotest.test_case "stats snapshot+diff" `Quick
          test_stats_snapshot_and_diff;
        Alcotest.test_case "stats pp" `Quick test_stats_pp;
        Alcotest.test_case "padded arrays behave like arrays" `Quick
          test_padded_semantics;
        Alcotest.test_case "padded cells a cache line apart" `Quick
          test_padded_spacing;
        Alcotest.test_case "turn: empty polling clean" `Quick
          test_turn_empty_polling_is_clean;
        Alcotest.test_case "turn: interleaved empty/non-empty" `Slow
          test_turn_interleaved_empty_and_items;
        Alcotest.test_case "tbkp: outcomes exact" `Slow
          test_tbkp_outcomes_are_exact;
        Alcotest.test_case "tbkp: same-key conservation" `Slow
          test_tbkp_mixed_same_key;
        Alcotest.test_case "nm: delete churn with poisoning" `Slow
          test_nm_poison_makes_searches_restart;
        prop_ptr_assign_chains;
      ] );
  ]
