(* Scan tests: the [Reclaim.Scan_set] scratch structure, the snapshot
   scans of the batching schemes (one slot visit per scan, not one per
   retired node) and read-side publication elision. *)

open Util
open Atomicx
module Scan_set = Reclaim.Scan_set

type tnode = { hdr : Memdom.Hdr.t; mutable value : int }

let tn_arena = Memdom.Handle.arena ~hdr:(fun (n : tnode) -> n.hdr) ()

module TN = struct
  type t = tnode

  let hdr n = n.hdr
end

module Hp = Reclaim.Hp.Make (TN)
module Ptb = Reclaim.Ptb.Make (TN)
module He = Reclaim.He.Make (TN)
module Ibr = Reclaim.Ibr.Make (TN)
module Ptp = Orc_core.Ptp.Make (TN)

let read_value n =
  Memdom.Hdr.check_access n.hdr;
  n.value

let mk alloc v = { hdr = Memdom.Alloc.hdr alloc (); value = v }

(* ------------------------------------------------------------------ *)
(* Scan_set as a data structure *)

let test_scan_set_points () =
  let s = Scan_set.create () in
  (* enough keys to force growth past the initial capacity, inserted
     unsorted and with duplicates *)
  for i = 199 downto 0 do
    Scan_set.add s ((i * 37) mod 100)
  done;
  Scan_set.seal s;
  for k = 0 to 99 do
    check_bool (Printf.sprintf "mem %d" k) true (Scan_set.mem s k)
  done;
  check_bool "absent above" false (Scan_set.mem s 100);
  check_bool "absent below" false (Scan_set.mem s (-1));
  Scan_set.reset s;
  Scan_set.seal s;
  check_bool "empty after reset" false (Scan_set.mem s 0);
  check_int "size after reset" 0 (Scan_set.size s)

let test_scan_set_find () =
  let s = Scan_set.create () in
  Scan_set.add_kv s ~key:42 ~value:7;
  Scan_set.add_kv s ~key:17 ~value:3;
  Scan_set.seal s;
  check_int "payload for 42" 7 (Scan_set.find s 42);
  check_int "payload for 17" 3 (Scan_set.find s 17);
  check_int "missing key" (-1) (Scan_set.find s 99)

let test_scan_set_ranges () =
  let s = Scan_set.create () in
  List.iter (fun e -> Scan_set.add s e) [ 10; 20; 30 ];
  Scan_set.seal s;
  (* a point inside [lo, hi] <=> protected under HE semantics *)
  check_bool "era inside" true (Scan_set.mem_range s ~lo:15 ~hi:25);
  check_bool "era at edge" true (Scan_set.mem_range s ~lo:30 ~hi:40);
  check_bool "gap" false (Scan_set.mem_range s ~lo:21 ~hi:29);
  check_bool "below all" false (Scan_set.mem_range s ~lo:0 ~hi:9);
  check_bool "above all" false (Scan_set.mem_range s ~lo:31 ~hi:1000)

let test_scan_set_overlaps () =
  let s = Scan_set.create () in
  (* unsorted, with a long interval shadowing a later lower bound —
     the running-max seal must still see it *)
  Scan_set.add_interval s ~lo:50 ~hi:60;
  Scan_set.add_interval s ~lo:10 ~hi:45;
  Scan_set.add_interval s ~lo:20 ~hi:25;
  Scan_set.seal_intervals s;
  check_bool "overlap inside long interval" true
    (Scan_set.overlaps s ~lo:40 ~hi:42);
  check_bool "overlap across the gap" false (Scan_set.overlaps s ~lo:46 ~hi:49);
  check_bool "overlap second cluster" true (Scan_set.overlaps s ~lo:58 ~hi:99);
  check_bool "below all" false (Scan_set.overlaps s ~lo:0 ~hi:9);
  check_bool "touching lower bound" true (Scan_set.overlaps s ~lo:0 ~hi:10)

(* ------------------------------------------------------------------ *)
(* Snapshot scans: each batching scan builds exactly one snapshot and
   visits each published slot once — scan_slots is bounded by
   scans x (rows x slots-per-row), not by retired x rows x slots. *)

module Snapshot_scan (S : Reclaim.Scheme_intf.S with type node = tnode) =
struct
  (* [pin] stages a protection for [tid] covering [n]; [unpin] drops
     it.  Pointer schemes publish the pointer; IBR pins the thread's
     reservation interval (its protect_raw is a no-op). *)
  let test ~slots_per_row ~pin ~unpin () =
    Registry.reserve 8;
    let alloc = Memdom.Alloc.create (S.name ^ "-snap") in
    let s = S.create ~max_hps:4 alloc in
    let pinned = mk alloc 1 in
    pin s ~tid:5 pinned;
    S.retire s ~tid:0 pinned;
    let retires = 200 in
    for i = 1 to retires do
      S.retire s ~tid:0 (mk alloc i)
    done;
    let st = (S.stats s : Reclaim.Scheme_intf.stats) in
    check_bool "scans happened" true (st.scans > 0);
    check_int "one snapshot per scan" st.scans st.snapshot_builds;
    check_bool "pinned node found in snapshots" true (st.snapshot_hits > 0);
    (* the linear-scan invariant: every slot visit belongs to a
       snapshot build, so the total is one row-walk per scan, however
       many retired nodes each scan tests. *)
    let per_scan = Registry.registered () * slots_per_row s in
    check_bool
      (Printf.sprintf "scan_slots %d within %d scans x %d slots"
         st.scan_slots st.scans per_scan)
      true
      (st.scan_slots <= st.scans * per_scan);
    check_bool "pinned survived the churn" false
      (Memdom.Hdr.is_freed pinned.hdr);
    unpin s ~tid:5;
    S.flush s;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live alloc);
    check_int "nothing pending" 0 (S.unreclaimed s)
end

module Snap_hp = Snapshot_scan (Hp)
module Snap_ptb = Snapshot_scan (Ptb)
module Snap_he = Snapshot_scan (He)
module Snap_ibr = Snapshot_scan (Ibr)

let pin_ptr (type a) (module S : Reclaim.Scheme_intf.S
                       with type node = tnode
                        and type t = a) (s : a) ~tid n =
  S.protect_raw s ~tid ~idx:0 (Some n)

let unpin_all (type a) (module S : Reclaim.Scheme_intf.S
                         with type node = tnode
                          and type t = a) (s : a) ~tid =
  S.end_op s ~tid

let test_snapshot_hp =
  Snap_hp.test
    ~slots_per_row:(fun s -> Hp.max_hps s)
    ~pin:(pin_ptr (module Hp))
    ~unpin:(unpin_all (module Hp))

let test_snapshot_ptb =
  Snap_ptb.test
    ~slots_per_row:(fun s -> Ptb.max_hps s)
    ~pin:(pin_ptr (module Ptb))
    ~unpin:(unpin_all (module Ptb))

let test_snapshot_he =
  Snap_he.test
    ~slots_per_row:(fun s -> He.max_hps s)
    ~pin:(pin_ptr (module He))
    ~unpin:(unpin_all (module He))

(* IBR reserves one interval per row, so a snapshot visits one slot per
   row; pinning goes through [begin_op] (protect_raw is a no-op). *)
let test_snapshot_ibr =
  Snap_ibr.test
    ~slots_per_row:(fun _ -> 1)
    ~pin:(fun s ~tid _n -> Ibr.begin_op s ~tid)
    ~unpin:(unpin_all (module Ibr))

(* ------------------------------------------------------------------ *)
(* Publication elision *)

(* Deterministic single-thread elision: the second protected read of an
   unchanged link skips the publish, and a moved link still
   re-publishes the new target. *)
let test_elision_hp () =
  let alloc = Memdom.Alloc.create "hp-elide" in
  let s = Hp.create ~max_hps:4 alloc in
  let tid = Registry.tid () in
  Hp.begin_op s ~tid;
  let a = mk alloc 1 and b = mk alloc 2 in
  let link = Link.make_in tn_arena (Link.Ptr a) in
  ignore (Hp.get_protected_v s ~tid ~idx:0 link);
  check_int "first read publishes" 0 (Hp.stats s).elided;
  ignore (Hp.get_protected_v s ~tid ~idx:0 link);
  check_int "second read elides" 1 (Hp.stats s).elided;
  (* the elided read must still protect: retire [a] and confirm it
     survives until the slot clears *)
  Link.set link (Link.Ptr b);
  ignore (Hp.get_protected_v s ~tid ~idx:0 link);
  check_int "moved link re-publishes" 1 (Hp.stats s).elided;
  Hp.retire s ~tid a;
  Hp.retire s ~tid b;
  Hp.flush s;
  check_bool "a reclaimable once unprotected" true (Memdom.Hdr.is_freed a.hdr);
  check_bool "b still protected" false (Memdom.Hdr.is_freed b.hdr);
  Hp.end_op s ~tid;
  Hp.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

let test_elision_he () =
  let alloc = Memdom.Alloc.create "he-elide" in
  let s = He.create ~max_hps:4 alloc in
  let tid = Registry.tid () in
  He.begin_op s ~tid;
  let a = mk alloc 1 in
  let link = Link.make_in tn_arena (Link.Ptr a) in
  ignore (He.get_protected_v s ~tid ~idx:0 link);
  let first = (He.stats s).elided in
  ignore (He.get_protected_v s ~tid ~idx:0 link);
  check_bool "stable era elides" true ((He.stats s).elided > first);
  He.end_op s ~tid;
  He.retire s ~tid a;
  He.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* Elided publishes never unprotect a live node: readers hammer the
   same slots (maximizing elision hits) while writers swap and retire
   underneath them.  Any premature free trips check_access in a
   worker. *)
module Elision_stress (S : Reclaim.Scheme_intf.S with type node = tnode) =
struct
  let test () =
    let alloc = Memdom.Alloc.create (S.name ^ "-elide-stress") in
    let s = S.create ~max_hps:4 alloc in
    let nslots = 8 in
    let iters = 3_000 in
    let table =
      Array.init nslots (fun i -> Link.make_in tn_arena (Link.Ptr (mk alloc i)))
    in
    run_domains_exn 4 (fun ~i ~tid ->
        let rng = Rng.create ((i * 7919) + 13) in
        for k = 1 to iters do
          let slot = table.(Rng.int rng nslots) in
          S.begin_op s ~tid;
          if i land 1 = 0 then begin
            let n = mk alloc k in
            S.protect_raw s ~tid ~idx:0 (Some n);
            let old = swap tn_arena slot (Link.Ptr n) in
            S.end_op s ~tid;
            match Link.target old with
            | Some o -> S.retire s ~tid o
            | None -> ()
          end
          else begin
            (* double protected read of the same link: the second is
               the elision fast path unless a writer moved it *)
            ignore (S.get_protected_v s ~tid ~idx:0 slot);
            let st = Link.v_state slot (S.get_protected_v s ~tid ~idx:0 slot) in
            (match Link.target st with
            | Some n -> ignore (read_value n)
            | None -> ());
            S.end_op s ~tid
          end
        done);
    check_bool "elision fired under stress" true ((S.stats s).elided > 0);
    Array.iter
      (fun slot ->
        match Link.target (swap tn_arena slot Link.Null) with
        | Some n -> S.retire s ~tid:(Registry.tid ()) n
        | None -> ())
      table;
    S.flush s;
    S.flush s;
    check_int "no leak after stress" 0 (Memdom.Alloc.live alloc);
    check_int "nothing pending" 0 (S.unreclaimed s)
end

module Stress_hp = Elision_stress (Hp)
module Stress_ptp = Elision_stress (Ptp)

let suite =
  [
    ( "scan_set",
      [
        Alcotest.test_case "points: add/seal/mem with growth" `Quick
          test_scan_set_points;
        Alcotest.test_case "payloads: add_kv/find" `Quick test_scan_set_find;
        Alcotest.test_case "ranges: point-in-interval queries" `Quick
          test_scan_set_ranges;
        Alcotest.test_case "intervals: overlap with running max" `Quick
          test_scan_set_overlaps;
      ] );
    ( "scan_snapshot",
      [
        Alcotest.test_case "hp: one slot visit per scan" `Quick
          test_snapshot_hp;
        Alcotest.test_case "ptb: one slot visit per liberate" `Quick
          test_snapshot_ptb;
        Alcotest.test_case "he: one era visit per scan" `Quick
          test_snapshot_he;
        Alcotest.test_case "ibr: one interval visit per scan" `Quick
          test_snapshot_ibr;
      ] );
    ( "elision",
      [
        Alcotest.test_case "hp: stable link elides, moved link republishes"
          `Quick test_elision_hp;
        Alcotest.test_case "he: stable era elides" `Quick test_elision_he;
        Alcotest.test_case "hp: elision safe under concurrent retire" `Slow
          Stress_hp.test;
        Alcotest.test_case "ptp: elision safe under concurrent retire" `Slow
          Stress_ptp.test;
      ] );
  ]
