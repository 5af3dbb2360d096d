(* Scheme-generic tests: every manual scheme (baselines and PTP) must
   satisfy the same protect/retire contract, checked against the memdom
   substrate.  The same functor runs over HP, PTB, EBR, HE and PTP. *)

open Util
open Atomicx

type tnode = { hdr : Memdom.Hdr.t; mutable value : int }

let tn_arena = Memdom.Handle.arena ~hdr:(fun (n : tnode) -> n.hdr) ()

module TN = struct
  type t = tnode

  let hdr n = n.hdr
end

module Hp = Reclaim.Hp.Make (TN)
module Ptb = Reclaim.Ptb.Make (TN)
module Ebr = Reclaim.Ebr.Make (TN)
module He = Reclaim.He.Make (TN)
module Ibr = Reclaim.Ibr.Make (TN)
module Ptp = Orc_core.Ptp.Make (TN)
module Leak = Reclaim.None_scheme.Leak (TN)
module Unsafe = Reclaim.None_scheme.Unsafe (TN)

let read_value n =
  Memdom.Hdr.check_access n.hdr;
  n.value

module Generic (S : Reclaim.Scheme_intf.S with type node = tnode) = struct
  let fresh () =
    let alloc = Memdom.Alloc.create (S.name ^ "-test") in
    (alloc, S.create ~max_hps:4 alloc)

  let mk alloc v = { hdr = Memdom.Alloc.hdr alloc (); value = v }

  (* A protected node survives retirement; clearing releases it. *)
  let test_protect_blocks_reclaim () =
    let alloc, s = fresh () in
    let tid = Registry.tid () in
    S.begin_op s ~tid;
    let n = mk alloc 7 in
    let link = Link.make_in tn_arena (Link.Ptr n) in
    let st = Link.v_state link (S.get_protected_v s ~tid ~idx:0 link) in
    (match Link.target st with
    | Some m -> check_bool "protected target" true (m == n)
    | None -> Alcotest.fail "lost target");
    Link.set link Link.Null;
    S.retire s ~tid n;
    S.flush s;
    check_bool "still alive while protected" false (Memdom.Hdr.is_freed n.hdr);
    check_int "still readable" 7 (read_value n);
    S.end_op s ~tid;
    S.flush s;
    check_bool "freed after clear" true (Memdom.Hdr.is_freed n.hdr);
    check_int "no leak" 0 (Memdom.Alloc.live alloc);
    check_int "nothing pending" 0 (S.unreclaimed s)

  (* Unprotected retirement reclaims everything eventually. *)
  let test_churn_reclaims_all () =
    let alloc, s = fresh () in
    let tid = Registry.tid () in
    for i = 1 to 2_000 do
      S.begin_op s ~tid;
      let n = mk alloc i in
      let link = Link.make_in tn_arena (Link.Ptr n) in
      ignore (S.get_protected_v s ~tid ~idx:0 link);
      Link.set link Link.Null;
      S.end_op s ~tid;
      S.retire s ~tid n
    done;
    S.flush s;
    check_int "all reclaimed" 0 (Memdom.Alloc.live alloc);
    check_int "nothing pending" 0 (S.unreclaimed s)

  (* get_protected_v must chase a moving link until it validates. *)
  let test_get_protected_validates () =
    let alloc, s = fresh () in
    let tid = Registry.tid () in
    S.begin_op s ~tid;
    let a = mk alloc 1 and b = mk alloc 2 in
    let link = Link.make_in tn_arena (Link.Ptr a) in
    Link.set link (Link.Ptr b);
    let st = Link.v_state link (S.get_protected_v s ~tid ~idx:0 link) in
    (match Link.target st with
    | Some m -> check_int "sees latest" 2 (read_value m)
    | None -> Alcotest.fail "null");
    S.end_op s ~tid;
    Memdom.Alloc.free alloc a.hdr;
    Memdom.Alloc.free alloc b.hdr

  (* Concurrent stress: writers replace-and-retire nodes in a shared
     table while readers traverse them under protection.  Any premature
     free raises Use_after_free out of a worker and fails the test. *)
  let test_concurrent_stress () =
    let alloc, s = fresh () in
    let nslots = 16 in
    let iters = 3_000 in
    let table =
      Array.init nslots (fun i -> Link.make_in tn_arena (Link.Ptr (mk alloc i)))
    in
    run_domains_exn 4 (fun ~i ~tid ->
        let rng = Rng.create (i * 7919) in
        for k = 1 to iters do
          let slot = table.(Rng.int rng nslots) in
          S.begin_op s ~tid;
          if i land 1 = 0 then begin
            (* writer: swap in a fresh node, retire the old one *)
            let n = mk alloc k in
            S.protect_raw s ~tid ~idx:0 (Some n);
            let old = swap tn_arena slot (Link.Ptr n) in
            S.end_op s ~tid;
            match Link.target old with
            | Some o -> S.retire s ~tid o
            | None -> ()
          end
          else begin
            (* reader: protect, then dereference *)
            let st = Link.v_state slot (S.get_protected_v s ~tid ~idx:0 slot) in
            (match Link.target st with
            | Some n -> ignore (read_value n)
            | None -> ());
            S.end_op s ~tid
          end
        done);
    (* quiesce: drop the table and drain *)
    Array.iter
      (fun slot ->
        match Link.target (swap tn_arena slot Link.Null) with
        | Some n -> S.retire s ~tid:(Registry.tid ()) n
        | None -> ())
      table;
    S.flush s;
    check_int "no leak after stress" 0 (Memdom.Alloc.live alloc);
    check_int "nothing pending" 0 (S.unreclaimed s)

  (* Tid recycling: the first life dies mid-operation — protection
     published, retires pending below any scan threshold, no [end_op].
     The exit path must orphan the backlog and clear the hazards, so
     the second life (same slot, bumped generation) starts from a
     clean slate and nothing is lost once the scheme quiesces. *)
  let test_tid_recycling () =
    let alloc, s = fresh () in
    let node = mk alloc 1 in
    let link = Link.make_in tn_arena (Link.Ptr node) in
    let tid1, gen1 =
      Domain.join
        (Domain.spawn (fun () ->
             Registry.with_tid (fun tid ->
                 S.begin_op s ~tid;
                 ignore (S.get_protected_v s ~tid ~idx:0 link);
                 Link.set link Link.Null;
                 S.retire s ~tid node;
                 for i = 1 to 8 do
                   S.retire s ~tid (mk alloc i)
                 done;
                 (* die here: no end_op, no explicit cleanup *)
                 (tid, Registry.generation tid))))
    in
    let tid2, gen2 =
      Domain.join
        (Domain.spawn (fun () ->
             Registry.with_tid (fun tid ->
                 (* the recycled slot must behave like a fresh one *)
                 S.begin_op s ~tid;
                 let st =
                   Link.v_state link (S.get_protected_v s ~tid ~idx:0 link)
                 in
                 check_bool "sees the unlinked table" true
                   (Link.target st = None);
                 S.end_op s ~tid;
                 (tid, Registry.generation tid))))
    in
    check_int "same slot re-issued" tid1 tid2;
    check_bool "generation bumped across lives" true (gen2 > gen1);
    S.flush s;
    check_int "nothing lost across recycling" 0 (Memdom.Alloc.live alloc);
    check_int "nothing pending" 0 (S.unreclaimed s);
    check_int "orphan pool drained" 0 (S.orphaned s)

  (* A neutralization that lands mid-operation is acknowledged by
     [end_op]: the silent half of the handshake, which every scheme
     runs (the flag must not survive into the thread's next op). *)
  let test_end_op_acks_neutralize () =
    let _alloc, s = fresh () in
    let tid = Registry.tid () in
    Reclaim.Neutralize.arm ();
    Fun.protect
      ~finally:(fun () ->
        Reclaim.Neutralize.ack ~tid;
        Reclaim.Neutralize.disarm ())
      (fun () ->
        S.begin_op s ~tid;
        check_bool "fire" true
          (Reclaim.Neutralize.fire ~by:tid ~tid ~age:1 ());
        S.end_op s ~tid;
        check_bool "end_op acknowledged" false
          (Reclaim.Neutralize.is_pending ~tid))

  let cases =
    [
      Alcotest.test_case
        (S.name ^ ": protect blocks reclamation")
        `Quick test_protect_blocks_reclaim;
      Alcotest.test_case
        (S.name ^ ": churn reclaims all")
        `Quick test_churn_reclaims_all;
      Alcotest.test_case
        (S.name ^ ": get_protected validates")
        `Quick test_get_protected_validates;
      Alcotest.test_case
        (S.name ^ ": concurrent stress, no UAF, no leak")
        `Slow test_concurrent_stress;
      Alcotest.test_case
        (S.name ^ ": tid recycling starts clean")
        `Quick test_tid_recycling;
      Alcotest.test_case
        (S.name ^ ": end_op acks a neutralization")
        `Quick test_end_op_acks_neutralize;
    ]
end

(* The batching schemes' threshold contract: with nothing protected,
   the scan runs at exactly the R-th retire, R = 2·H·t over the live
   thread count. *)
module Batching (S : Reclaim.Scheme_intf.S with type node = tnode) = struct
  let hps = 4

  let scans_at_r s alloc ~tid =
    let r = Reclaim.Tuning.threshold ~hps in
    let scans0 = (S.stats s).scans in
    for i = 1 to r - 1 do
      S.retire s ~tid { hdr = Memdom.Alloc.hdr alloc (); value = i }
    done;
    check_int "no scan below R" scans0 (S.stats s).scans;
    S.retire s ~tid { hdr = Memdom.Alloc.hdr alloc (); value = r };
    check_int "one scan at the R-th retire" (scans0 + 1) (S.stats s).scans

  let test_threshold () =
    let alloc = Memdom.Alloc.create (S.name ^ "-threshold") in
    let s = S.create ~max_hps:hps alloc in
    let tid = Registry.tid () in
    scans_at_r s alloc ~tid;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live alloc)

  let cases =
    [
      Alcotest.test_case
        (S.name ^ ": scans at the R-th retire")
        `Quick test_threshold;
    ]
end

module Gen_hp = Generic (Hp)
module Gen_ptb = Generic (Ptb)
module Gen_ebr = Generic (Ebr)
module Gen_he = Generic (He)
module Gen_ibr = Generic (Ibr)
module Gen_ptp = Generic (Ptp)
module Bat_hp = Batching (Hp)
module Bat_ptb = Batching (Ptb)
module Bat_ebr = Batching (Ebr)
module Bat_he = Batching (He)
module Bat_ibr = Batching (Ibr)

(* The Unsafe control frees at retire: proves the substrate detects the
   use-after-free the real schemes must prevent. *)
let test_unsafe_detected () =
  let alloc = Memdom.Alloc.create "unsafe-test" in
  let s = Unsafe.create alloc in
  let tid = Registry.tid () in
  let n = { hdr = Memdom.Alloc.hdr alloc (); value = 1 } in
  let link = Link.make_in tn_arena (Link.Ptr n) in
  ignore (Unsafe.get_protected_v s ~tid ~idx:0 link);
  Link.set link Link.Null;
  Unsafe.retire s ~tid n;
  (match read_value n with
  | _ -> Alcotest.fail "use-after-free not detected"
  | exception Memdom.Hdr.Use_after_free _ -> ());
  Unsafe.end_op s ~tid

(* The Leak control never frees until flushed. *)
let test_leak_defers_everything () =
  let alloc = Memdom.Alloc.create "leak-test" in
  let s = Leak.create alloc in
  let tid = Registry.tid () in
  for i = 1 to 100 do
    let n = { hdr = Memdom.Alloc.hdr alloc (); value = i } in
    Leak.retire s ~tid n
  done;
  check_int "everything pending" 100 (Leak.unreclaimed s);
  check_int "nothing freed" 100 (Memdom.Alloc.live alloc);
  Leak.flush s;
  check_int "flush reclaims" 0 (Memdom.Alloc.live alloc)

(* PTP-specific: the linear bound of §3.1.  With all hazard slots empty,
   retire must free immediately (no retired list); with k protected
   objects, at most t*(H+1) can ever be pending. *)
let test_ptp_immediate_free_when_unprotected () =
  let alloc = Memdom.Alloc.create "ptp-test" in
  let s = Ptp.create ~max_hps:4 alloc in
  let tid = Registry.tid () in
  let n = { hdr = Memdom.Alloc.hdr alloc (); value = 1 } in
  Ptp.retire s ~tid n;
  (* no scan threshold, no retired list: freed on the spot *)
  check_bool "freed immediately" true (Memdom.Hdr.is_freed n.hdr);
  check_int "live" 0 (Memdom.Alloc.live alloc)

let test_ptp_handover_parks_then_clear_frees () =
  let alloc = Memdom.Alloc.create "ptp-test" in
  let s = Ptp.create ~max_hps:4 alloc in
  let tid = Registry.tid () in
  let n = { hdr = Memdom.Alloc.hdr alloc (); value = 1 } in
  let link = Link.make_in tn_arena (Link.Ptr n) in
  ignore (Ptp.get_protected_v s ~tid ~idx:2 link);
  Link.set link Link.Null;
  Ptp.retire s ~tid n;
  (* parked in our handover slot, not freed *)
  check_bool "parked, not freed" false (Memdom.Hdr.is_freed n.hdr);
  check_int "one pending" 1 (Ptp.unreclaimed s);
  Ptp.clear s ~tid ~idx:2;
  check_bool "freed on clear" true (Memdom.Hdr.is_freed n.hdr);
  check_int "none pending" 0 (Ptp.unreclaimed s)

let test_ptp_linear_bound_under_stress () =
  let alloc = Memdom.Alloc.create "ptp-bound" in
  let hps = 4 in
  let s = Ptp.create ~max_hps:hps alloc in
  let nslots = 8 in
  let table =
    Array.init nslots (fun i ->
        Link.make_in tn_arena
          (Link.Ptr { hdr = Memdom.Alloc.hdr alloc (); value = i }))
  in
  let workers = 4 in
  let stop = Atomic.make false in
  let max_seen = Atomic.make 0 in
  let watcher =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let u = Ptp.unreclaimed s in
          let rec bump () =
            let m = Atomic.get max_seen in
            if u > m && not (Atomic.compare_and_set max_seen m u) then bump ()
          in
          bump ();
          Domain.cpu_relax ()
        done)
  in
  run_domains_exn workers (fun ~i ~tid ->
      let rng = Rng.create (i * 31337) in
      for k = 1 to 4_000 do
        let slot = table.(Rng.int rng nslots) in
        if i land 1 = 0 then begin
          let n = { hdr = Memdom.Alloc.hdr alloc (); value = k } in
          match Link.target (swap tn_arena slot (Link.Ptr n)) with
          | Some o -> Ptp.retire s ~tid o
          | None -> ()
        end
        else begin
          let idx = Rng.int rng hps in
          ignore (Ptp.get_protected_v s ~tid ~idx slot);
          if Rng.bool rng then Ptp.clear s ~tid ~idx
        end;
        Ptp.end_op s ~tid
      done);
  Atomic.set stop true;
  Domain.join watcher;
  (* linear bound: t*(H+1), with t = workers + watcher + main slack;
     use the registry-wide worst case to be conservative *)
  let bound = (workers + 2) * (hps + 1) in
  check_bool
    (Printf.sprintf "max pending %d <= linear bound %d"
       (Atomic.get max_seen) bound)
    true
    (Atomic.get max_seen <= bound);
  Array.iter
    (fun slot ->
      match Link.target (swap tn_arena slot Link.Null) with
      | Some n -> Ptp.retire s ~tid:(Registry.tid ()) n
      | None -> ())
    table;
  Ptp.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

(* The handover plane's exactly-one-drainer property, which PTB's
   versioned handoff box used to claim: one domain hands fresh nodes
   into a single slot while another takes from it, and every node
   handed in comes out exactly once — as an evictee, a take or the
   final drain. *)
let test_handover_drains_each_node_once () =
  let h =
    Reclaim.Handover.create ~slots:1 ~sink:Obs.Sink.null
      ~handovers:(Shard.create ())
  in
  let n = 10_000 in
  let nodes = Array.init n (fun i -> ref i) in
  let handed = Atomic.make false in
  let keep acc x =
    if not (Reclaim.Handover.is_empty x) then acc := !x :: !acc
  in
  let out =
    run_domains 2 (fun ~i ~tid ->
        let acc = ref [] in
        if i = 0 then begin
          Array.iter
            (fun x ->
              keep acc (Reclaim.Handover.hand h ~tid ~row:0 ~idx:0 ~uid:!x x))
            nodes;
          Atomic.set handed true
        end
        else
          while not (Atomic.get handed) do
            keep acc (Reclaim.Handover.take h ~row:0 ~idx:0)
          done;
        !acc)
  in
  let final = ref [] in
  keep final (Reclaim.Handover.take h ~row:0 ~idx:0);
  let seen = Array.make n 0 in
  List.iter (List.iter (fun i -> seen.(i) <- seen.(i) + 1)) (!final :: out);
  check_bool "every node out exactly once" true (Array.for_all (( = ) 1) seen);
  check_bool "the plane is empty" true
    (Reclaim.Handover.is_empty (Reclaim.Handover.take h ~row:0 ~idx:0))

(* The cached R derives from Registry.active (); a quarantine pass
   (domain death) must refresh it, not just a crossing.  Park a wide
   active population, prime the cache, let the helpers die, and check
   the very next crossing test uses the narrowed width. *)
let test_threshold_refreshes_on_quarantine () =
  let alloc = Memdom.Alloc.create "tuning-quarantine" in
  let s = Ebr.create ~max_hps:4 alloc in
  let mk v = { hdr = Memdom.Alloc.hdr alloc (); value = v } in
  Registry.reserve 1;
  let tid = Registry.tid () in
  run_domains_exn 8 (fun ~i:_ ~tid:wtid ->
      Ebr.begin_op s ~tid:wtid;
      Ebr.end_op s ~tid:wtid;
      (* one retire each primes the cached threshold at this width *)
      Ebr.retire s ~tid:wtid (mk 0));
  (* helpers have released: the quarantine hooks must have re-derived
     the threshold at the narrow width, so a burst sized for the narrow
     R scans (adopting the helpers' orphans) instead of pooling up to
     the stale wide R *)
  let narrow = Reclaim.Tuning.threshold ~hps:4 in
  for k = 1 to narrow + 1 do
    Ebr.retire s ~tid (mk k)
  done;
  check_bool "scan fired at the narrowed threshold" true
    (Ebr.unreclaimed s < narrow + 1);
  Ebr.flush s;
  Ebr.flush s;
  check_int "leak-free" 0 (Memdom.Alloc.live alloc)

let suite =
  [
    ("scheme:hp", Gen_hp.cases @ Bat_hp.cases);
    ("scheme:ptb", Gen_ptb.cases @ Bat_ptb.cases);
    ( "scheme:ebr",
      Gen_ebr.cases @ Bat_ebr.cases
      @ [
          Alcotest.test_case "tuning: threshold refreshes on quarantine"
            `Quick test_threshold_refreshes_on_quarantine;
        ] );
    ("scheme:he", Gen_he.cases @ Bat_he.cases);
    ("scheme:ibr", Gen_ibr.cases @ Bat_ibr.cases);
    ("scheme:ptp", Gen_ptp.cases);
    ( "scheme:controls",
      [
        Alcotest.test_case "unsafe control is detected" `Quick
          test_unsafe_detected;
        Alcotest.test_case "leak control defers everything" `Quick
          test_leak_defers_everything;
      ] );
    ( "ptp:bounds",
      [
        Alcotest.test_case "unprotected retire frees immediately" `Quick
          test_ptp_immediate_free_when_unprotected;
        Alcotest.test_case "handover parks until clear" `Quick
          test_ptp_handover_parks_then_clear_frees;
        Alcotest.test_case "linear bound under stress" `Slow
          test_ptp_linear_bound_under_stress;
      ] );
    ( "handover",
      [
        Alcotest.test_case "each node handed in comes out once" `Quick
          test_handover_drains_each_node_once;
      ] );
  ]
