(* White-box tests: drive the PTP handover machinery and the OrcGC
   hazard-index allocator through exact scenarios by manipulating
   per-thread slots directly (the scheme APIs take explicit [~tid], so a
   single test thread can stage multi-thread configurations
   deterministically). *)

open Util
open Atomicx

type tnode = { hdr : Memdom.Hdr.t; mutable value : int }

module TN = struct
  type t = tnode

  let hdr n = n.hdr
end

module Ptp = Orc_core.Ptp.Make (TN)

let mk alloc v = { hdr = Memdom.Alloc.hdr alloc (); value = v }

(* Algorithm 2's defining behaviour: a retired-but-protected object is
   *passed forward* through the protecting slots in scan order, and
   freed the moment the last protection disappears. *)
(* These tests stage slots for tids the suite never registers (e.g. 5,
   7).  The handover scan only covers [0, Registry.registered ()), so
   reserve the watermark explicitly rather than relying on earlier
   suites having registered enough domains. *)
let reserve_staged_tids () = Registry.reserve 8

let test_ptp_passes_the_pointer_forward () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptp-wb" in
  let s = Ptp.create ~max_hps:4 alloc in
  let n = mk alloc 1 in
  (* protections in two distinct "threads" *)
  Ptp.protect_raw s ~tid:2 ~idx:1 (Some n);
  Ptp.protect_raw s ~tid:5 ~idx:0 (Some n);
  Ptp.retire s ~tid:0 n;
  check_bool "parked, not freed" false (Memdom.Hdr.is_freed n.hdr);
  check_int "pending" 1 (Ptp.unreclaimed s);
  (* drop the first protection: clear drains the handover and pushes the
     object forward to the remaining protector *)
  Ptp.clear s ~tid:2 ~idx:1;
  check_bool "still parked at the later protector" false
    (Memdom.Hdr.is_freed n.hdr);
  check_int "still pending" 1 (Ptp.unreclaimed s);
  (* drop the last protection: now it must be freed *)
  Ptp.clear s ~tid:5 ~idx:0;
  check_bool "freed at last clear" true (Memdom.Hdr.is_freed n.hdr);
  check_int "nothing pending" 0 (Ptp.unreclaimed s);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* The handover slot holds at most one object: retiring a second object
   protected by the same slot evicts the first, which continues its scan
   and, with no other protection, is freed. *)
let test_ptp_handover_eviction () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptp-wb" in
  let s = Ptp.create ~max_hps:4 alloc in
  let a = mk alloc 1 and b = mk alloc 2 in
  Ptp.protect_raw s ~tid:3 ~idx:2 (Some a);
  Ptp.retire s ~tid:0 a;
  check_bool "a parked" false (Memdom.Hdr.is_freed a.hdr);
  (* repoint the hazard to b, then retire b: b parks, evicting a, and a
     (no longer protected) is freed by the continuing scan *)
  Ptp.protect_raw s ~tid:3 ~idx:2 (Some b);
  Ptp.retire s ~tid:0 b;
  check_bool "a freed by eviction" true (Memdom.Hdr.is_freed a.hdr);
  check_bool "b parked" false (Memdom.Hdr.is_freed b.hdr);
  check_int "one pending" 1 (Ptp.unreclaimed s);
  Ptp.clear s ~tid:3 ~idx:2;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* Linear-bound saturation: fill every slot of several threads with
   protected retired objects — pending equals the protected population,
   and one more unprotected retire still frees immediately. *)
let test_ptp_bound_saturation () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptp-wb" in
  let hps = 3 in
  let s = Ptp.create ~max_hps:hps alloc in
  let tids = [ 1; 4; 7 ] in
  let nodes =
    List.concat_map
      (fun tid ->
        List.init hps (fun idx ->
            let n = mk alloc ((tid * 10) + idx) in
            Ptp.protect_raw s ~tid ~idx (Some n);
            Ptp.retire s ~tid:0 n;
            n))
      tids
  in
  check_int "every protected object parked"
    (List.length nodes)
    (Ptp.unreclaimed s);
  let extra = mk alloc 999 in
  Ptp.retire s ~tid:0 extra;
  check_bool "unprotected retire frees through a full park" true
    (Memdom.Hdr.is_freed extra.hdr);
  List.iter (fun tid -> Ptp.end_op s ~tid) tids;
  check_int "all reclaimed after clears" 0 (Ptp.unreclaimed s);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* ------------------------------------------------------------------ *)
(* OrcGC hazard-index management *)

type onode = { hdr : Memdom.Hdr.t; next : onode Link.t }

module O = Orc_core.Orc.Make (struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end)

let test_orc_index_exhaustion_raises () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  O.with_guard o (fun g ->
      Alcotest.check_raises "more handles than slots"
        Orc_core.Orc.Out_of_hazard_indexes (fun () ->
          for _ = 1 to Orc_core.Orc.max_haz + 1 do
            ignore (O.ptr g)
          done))

let test_orc_indexes_recycle_across_guards () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  (* many guards each taking many handles: if indexes leaked, this would
     exhaust the 64-slot array after two iterations *)
  for _ = 1 to 100 do
    O.with_guard o (fun g ->
        for _ = 1 to 40 do
          ignore (O.ptr g)
        done)
  done;
  check_bool "indexes recycled" true true

let test_orc_stats_counters () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  let root = Link.make_in (O.arena o) Link.Null in
  let mk hdr = { hdr; next = Link.make_in (O.arena o) Link.Null } in
  (* build a chain of 100, then drop it: cascades must show up *)
  O.with_guard o (fun g ->
      let p = O.ptr g and q = O.ptr g in
      for _ = 1 to 100 do
        O.load g root q;
        let n = O.alloc_node_into g p mk in
        O.store_v g n.next (O.Ptr.view q);
        O.store_v g root (O.v_ptr o n)
      done);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  let st = O.stats o in
  check_bool "retires counted" true (st.O.retires >= 100);
  check_bool "cascade drained recursively" true (st.O.cascades >= 90);
  check_int "all reclaimed" 0 (Memdom.Alloc.live alloc);
  (* a pinned unlink must count a handover *)
  O.with_guard o (fun g ->
      let p = O.alloc_node g mk in
      O.store_v g root (O.Ptr.view p);
      let h = O.ptr g in
      O.load g root h;
      O.store_v g root Link.v_null (* p pinned by h: parked via handover *));
  let st2 = O.stats o in
  check_bool "handover counted" true (st2.O.handovers > st.O.handovers);
  check_int "reclaimed after guard exit" 0 (Memdom.Alloc.live alloc)

(* The acceptance check for the bounded-scan rework: tryHandover's cost
   per invocation is [registered () * hazard_watermark] slots, not
   [max_threads * max_haz].  The counters are read after the run, and
   both [registered] and the watermark are monotone, so the product is a
   sound upper bound on every individual scan. *)
let test_orc_scan_cost_bounded () =
  let alloc = Memdom.Alloc.create "orc-wb" in
  let o = O.create alloc in
  let root = Link.make_in (O.arena o) Link.Null in
  let mk hdr = { hdr; next = Link.make_in (O.arena o) Link.Null } in
  O.with_guard o (fun g ->
      let p = O.ptr g and q = O.ptr g in
      for _ = 1 to 200 do
        O.load g root q;
        let n = O.alloc_node_into g p mk in
        O.store_v g n.next (O.Ptr.view q);
        O.store_v g root (O.v_ptr o n)
      done);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  let st = O.stats o in
  check_bool "retires drove scans" true (st.O.scans >= 200);
  let per_scan_bound = Registry.registered () * O.hazard_watermark o in
  check_bool
    (Printf.sprintf "scan slots %d <= scans %d * registered*watermark %d"
       st.O.scan_slots st.O.scans per_scan_bound)
    true
    (st.O.scan_slots <= st.O.scans * per_scan_bound);
  (* the old code visited max_threads rows per scan regardless of how
     many threads exist; the new cost must sit far below that *)
  check_bool
    (Printf.sprintf "scan slots %d < scans %d * max_threads %d"
       st.O.scan_slots st.O.scans Registry.max_threads)
    true
    (st.O.scan_slots < st.O.scans * Registry.max_threads);
  check_int "all reclaimed" 0 (Memdom.Alloc.live alloc)

(* ------------------------------------------------------------------ *)
(* Hdr lifecycle automaton vs a reference model *)

type model = MLive | MRetired | MFreed

let prop_hdr_matches_model =
  qtest ~count:200 "Hdr lifecycle = reference automaton"
    QCheck2.Gen.(list_size (int_range 1 30) (int_range 0 2))
    (fun ops ->
      let a = Memdom.Alloc.create "hdr-model" in
      let h = Memdom.Alloc.hdr a () in
      let model = ref MLive in
      List.for_all
        (fun op ->
          match op with
          | 0 -> (
              (* retire *)
              let expect_exn = !model <> MLive in
              match Memdom.Hdr.mark_retired h with
              | () ->
                  model := MRetired;
                  not expect_exn
              | exception (Memdom.Hdr.Double_retire _ | Memdom.Hdr.Use_after_free _)
                ->
                  expect_exn)
          | 1 -> (
              (* unretire *)
              let expect_exn = !model = MFreed in
              match Memdom.Hdr.unretire h with
              | () ->
                  if !model = MRetired then model := MLive;
                  not expect_exn
              | exception Memdom.Hdr.Use_after_free _ -> expect_exn)
          | _ -> (
              (* free *)
              let expect_exn = !model = MFreed in
              match Memdom.Alloc.free a h with
              | () ->
                  model := MFreed;
                  not expect_exn
              | exception Memdom.Hdr.Double_free _ -> expect_exn))
        ops)

(* PTB's liberate can hand a value to a guard its owner lowers right
   after the snapshot; the value then waits in that handoff slot for
   the owner's next [clear].  An owner that never runs again (here: the
   guard is unpublished raw, without a [clear]) must not strand it:
   [flush] drains every handoff slot. *)
module Ptb = Reclaim.Ptb.Make (TN)

let test_ptb_flush_drains_handoffs () =
  reserve_staged_tids ();
  let alloc = Memdom.Alloc.create "ptb-wb" in
  let s = Ptb.create ~max_hps:4 alloc in
  let n = mk alloc 1 in
  Ptb.protect_raw s ~tid:3 ~idx:2 (Some n);
  Ptb.retire s ~tid:0 n;
  Ptb.flush s;
  check_bool "handed to the guard, not freed" false (Memdom.Hdr.is_freed n.hdr);
  Ptb.protect_raw s ~tid:3 ~idx:2 None;
  Ptb.flush s;
  check_bool "freed once the guard is gone" true (Memdom.Hdr.is_freed n.hdr);
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

let suite =
  [
    ( "whitebox",
      [
        Alcotest.test_case "ptp passes the pointer forward" `Quick
          test_ptp_passes_the_pointer_forward;
        Alcotest.test_case "ptp handover eviction" `Quick
          test_ptp_handover_eviction;
        Alcotest.test_case "ptp bound saturation" `Quick
          test_ptp_bound_saturation;
        Alcotest.test_case "ptb flush drains handoff slots" `Quick
          test_ptb_flush_drains_handoffs;
        Alcotest.test_case "orc index exhaustion raises" `Quick
          test_orc_index_exhaustion_raises;
        Alcotest.test_case "orc indexes recycle across guards" `Quick
          test_orc_indexes_recycle_across_guards;
        Alcotest.test_case "orc stats counters" `Quick test_orc_stats_counters;
        Alcotest.test_case "orc scan cost bounded by registered threads"
          `Quick test_orc_scan_cost_bounded;
        prop_hdr_matches_model;
      ] );
  ]
