(* Skip-list tests: the shared set battery over HS-skip and CRF-skip,
   plus the paper's §5 claims: CRF isolates removed nodes (poison) while
   HS keeps them traversable, and CRF's footprint after heavy removal is
   dramatically smaller. *)

open Util
open Set_battery

module Skip = Ds.Skiplist_base
module Hs = Ds.Orc_hs_skiplist.Make ()
module Crf = Ds.Orc_crf_skiplist.Make ()

module Hs_hp = Ds.Orc_hs_skiplist.Impl (Orc_core.Orc.Make_hp (Skip.N))
module Crf_hp = Ds.Orc_crf_skiplist.Impl (Orc_core.Orc.Make_hp (Skip.N))
module B_hs = Battery (struct let name = "hs-skip" end) (Hs)
module B_crf = Battery (struct let name = "crf-skip" end) (Crf)
module B_hs_hp = Battery (struct let name = "hs-skip-orc-hp" end) (Hs_hp)
module B_crf_hp = Battery (struct let name = "crf-skip-orc-hp" end) (Crf_hp)

(* Sequential sanity over a large key range (multi-level towers). *)
let test_tall_towers () =
  let s = Crf.create () in
  let n = 3_000 in
  for i = 0 to n - 1 do
    ignore (Crf.add s ((i * 37) mod 10_007))
  done;
  let l = Crf.to_list s in
  check_bool "sorted" true (List.sort_uniq compare l = l);
  List.iter (fun k -> check_bool "present" true (Crf.contains s k)) l;
  List.iter (fun k -> check_bool "removed" true (Crf.remove s k)) l;
  check_int "empty" 0 (Crf.size s);
  Crf.destroy s;
  Crf.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Crf.alloc s))

(* CRF's whole point: after removing everything, live memory collapses to
   the sentinels, while the operations raced concurrently. *)
let test_crf_footprint_after_removal () =
  let s = Crf.create () in
  run_domains_exn 4 (fun ~i ~tid:_ ->
      let rng = Atomicx.Rng.create ((i + 1) * 911) in
      for _ = 1 to 2_000 do
        let k = 1 + Atomicx.Rng.int rng 64 in
        if Atomicx.Rng.bool rng then ignore (Crf.add s k)
        else ignore (Crf.remove s k)
      done);
  (* quiesced: stale protections are gone, so live = sentinels + set *)
  Crf.flush s;
  let live = Memdom.Alloc.live (Crf.alloc s) in
  let expected = Crf.size s + 2 in
  check_int "live = reachable after quiesce" expected live;
  Crf.destroy s;
  Crf.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Crf.alloc s))

(* Regression for the CRF isolation races: a removed node must be
   unlinked from every level before it is poisoned.  One left linked
   makes every later [find] through it restart forever, so the hot-key
   churn runs under a deadline instead of a plain join, and the
   quiesced structure is then walked at every level: no poisoned edge
   is reachable and keys strictly increase. *)
let test_crf_no_linked_poison () =
  let workers = 4 and ops = 4_000 and deadline_s = 20. in
  for round = 1 to 3 do
    let s = Crf.create () in
    let finished = Atomic.make 0 in
    let failure = Atomic.make None in
    let doms =
      List.init workers (fun i ->
          Domain.spawn (fun () ->
              Atomicx.Registry.with_tid (fun _ ->
                  let rng = Atomicx.Rng.create ((round * 31) + i + 1) in
                  (try
                     for _ = 1 to ops do
                       let k = 1 + Atomicx.Rng.int rng 8 in
                       match Atomicx.Rng.int rng 3 with
                       | 0 -> ignore (Crf.add s k)
                       | 1 -> ignore (Crf.remove s k)
                       | _ -> ignore (Crf.contains s k)
                     done
                   with e -> Atomic.set failure (Some e));
                  Atomic.incr finished)))
    in
    let give_up = Unix.gettimeofday () +. deadline_s in
    while Atomic.get finished < workers && Unix.gettimeofday () < give_up do
      Unix.sleepf 0.01
    done;
    if Atomic.get finished < workers then
      Alcotest.failf "round %d: workers still running after %.0fs (livelock)"
        round deadline_s;
    List.iter Domain.join doms;
    Option.iter raise (Atomic.get failure);
    for level = 0 to Array.length s.Crf.head.Skip.next - 1 do
      let rec walk (n : Skip.node) =
        if n != s.Crf.tail then
          match Atomicx.Link.get n.Skip.next.(level) with
          | Atomicx.Link.Ptr m | Atomicx.Link.Mark m ->
              if m != s.Crf.tail && m.Skip.key <= n.Skip.key then
                Alcotest.failf "round %d level %d: key %d follows %d" round
                  level m.Skip.key n.Skip.key;
              walk m
          | Atomicx.Link.Poison ->
              Alcotest.failf "round %d level %d: poisoned node %d still linked"
                round level n.Skip.key
          | _ -> Alcotest.failf "round %d level %d: broken chain" round level
      in
      walk s.Crf.head
    done;
    Crf.destroy s;
    Crf.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live (Crf.alloc s))
  done

(* HS keeps removed nodes traversable: a contains racing a remove must
   never raise and never restart (it has no restart path). *)
let test_hs_lookup_during_removal () =
  let s = Hs.create () in
  for k = 1 to 100 do
    ignore (Hs.add s k)
  done;
  run_domains_exn 2 (fun ~i ~tid:_ ->
      if i = 0 then
        for k = 1 to 100 do
          ignore (Hs.remove s k);
          ignore (Hs.add s k)
        done
      else
        for _ = 1 to 10 do
          for k = 1 to 100 do
            ignore (Hs.contains s k)
          done
        done);
  Hs.destroy s;
  Hs.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Hs.alloc s))

(* The §5 footprint shape on the hazard-pointer backend too: one pinned
   reader keeps HS's whole removed chain, CRF's poison cuts it. *)
let test_pinned_footprint_orc_hp () =
  let n = 2_000 in
  let hs, _ = Harness.Experiments.pinned_chain (module Hs_hp) n in
  let crf, _ = Harness.Experiments.pinned_chain (module Crf_hp) n in
  check_bool
    (Printf.sprintf "hs pinned-live %d > 10x crf's %d" hs crf)
    true
    (hs > 10 * crf)

let suite =
  [
    ("skiplist:hs", B_hs.cases);
    ("skiplist:crf", B_crf.cases);
    ("skip:hs-orc-hp", B_hs_hp.cases);
    ("skip:crf-orc-hp", B_crf_hp.cases);
    ( "skiplist:specific",
      [
        Alcotest.test_case "tall towers sequential" `Slow test_tall_towers;
        Alcotest.test_case "crf footprint collapses after removal" `Slow
          test_crf_footprint_after_removal;
        Alcotest.test_case "crf never leaves a poisoned node linked" `Slow
          test_crf_no_linked_poison;
        Alcotest.test_case "hs lookup during removal" `Slow
          test_hs_lookup_during_removal;
        Alcotest.test_case "orc-hp: hs pins the removed chain, crf not" `Slow
          test_pinned_footprint_orc_hp;
      ] );
  ]
