(* Domain-lifecycle chaos: waves of short-lived domains — an order of
   magnitude more than [Registry.max_threads] across the run — dying at
   randomized adversarial points while hammering every scheme.  The
   lifecycle contract under test: no [Use_after_free] / [Double_free] /
   [Too_many_threads] ever, zero live objects once the run quiesces,
   orphaned retire lists adopted by survivors, and abandoned (abruptly
   dead) slots reclaimed by [force_release].

   A failing battery is re-run once under an active [Obs] sink via
   [Util.trace_retry], which dumps the retire->free / adopt latency
   histograms and the event-ring tail before the test fails. *)

open Util
open Atomicx

type tnode = { hdr : Memdom.Hdr.t; mutable value : int }

module TN = struct
  type t = tnode

  let hdr n = n.hdr
end

module Ptp = Orc_core.Ptp.Make (TN)

let tn_arena = Memdom.Handle.arena ~hdr:TN.hdr ()

type onode = { hdr : Memdom.Hdr.t; v : int; next : onode Link.t }

module O = Orc_core.Orc.Make (struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end)

let mk alloc v = { hdr = Memdom.Alloc.hdr alloc (); value = v }
let omk o v hdr = { hdr; v; next = Link.make_in (O.arena o) Link.Null }

(* The full churn soak, one battery per scheme.  Default cfg spawns
   8 batteries x 20 waves x 8 domains = 1280 short-lived domains — ten
   times [Registry.max_threads] — on a fixed seed.  A battery that
   breaks its contract is re-run under a live sink for forensics. *)
let test_churn_all_schemes () =
  List.iter
    (fun (name, battery) ->
      let r = battery Chaos.default in
      let failed =
        trace_retry
          ~name:("chaos " ^ name)
          ~bound:1
          ~first:(if Chaos.ok r then 0 else 1)
          (fun () ->
            let r2 = battery { Chaos.default with sink = !Obs.Sink.default } in
            Format.eprintf "%a@." Chaos.pp_report r2;
            ((if Chaos.ok r2 then 0 else 1), [ r2.Chaos.peak_unreclaimed ]))
      in
      if failed > 0 then
        Alcotest.failf "%s: lifecycle contract violated:@.%a" name
          Chaos.pp_report r;
      check_bool (name ^ " spawned its share of churn") true
        (r.Chaos.domains = Chaos.default.waves * Chaos.default.domains_per_wave);
      check_bool (name ^ " actually killed domains") true (r.Chaos.killed > 0);
      (* pool batteries must actually exercise the recycler: headers
         recycled across domain deaths, some through remote frees
         (dying writers' evictees freed by survivors) *)
      let is_pool =
        String.length name > 5
        && String.sub name (String.length name - 5) 5 = "-pool"
      in
      if is_pool then begin
        check_bool (name ^ " recycled headers under churn") true
          (r.Chaos.pool_hits > 0);
        check_bool (name ^ " saw remote frees") true (r.Chaos.remote_frees > 0)
      end
      else
        check_bool (name ^ " system battery has no pool traffic") true
          (r.Chaos.pool_hits = 0 && r.Chaos.pool_misses = 0))
    Chaos.batteries

(* Abrupt death must stay contained for PTP: a dead thread's published
   hazard pins at most the objects it protected (here: one).  The pin
   holds — parked in the dead row's handover slot — until the
   controller proves the owner gone and force-releases, at which point
   the quarantine cleaner re-runs the handover scan and frees it. *)
let test_ptp_abrupt_death_containment () =
  let alloc = Memdom.Alloc.create "ptp-chaos" in
  let s = Ptp.create ~max_hps:4 alloc in
  let n = mk alloc 7 in
  let link = Link.make_in tn_arena (Link.Ptr n) in
  let dead_tid =
    Domain.join
      (Domain.spawn (fun () ->
           Registry.with_tid (fun tid ->
               Ptp.begin_op s ~tid;
               ignore (Ptp.get_protected_v s ~tid ~idx:0 link);
               (* die with the hazard still published *)
               Registry.abandon ())))
  in
  check_bool "slot still Active" true (Registry.slot_state dead_tid = `Active);
  let tid = Registry.tid () in
  Link.set link Link.Null;
  Ptp.retire s ~tid n;
  (* the dead hazard trapped it: parked, not freed — the O(Ht) bound *)
  check_int "parked on the dead row" 1 (Ptp.unreclaimed s);
  check_bool "not freed while trapped" false (Memdom.Hdr.is_freed n.hdr);
  check_bool "force_release reclaims the slot" true
    (Registry.force_release dead_tid);
  check_int "handover drained by quarantine" 0 (Ptp.unreclaimed s);
  check_int "no leak" 0 (Memdom.Alloc.live alloc);
  check_bool "slot recycled" true (Registry.slot_state dead_tid = `Free)

(* A domain dying inside an OrcGC guard: the guard unwinds its
   protections, the exit hook adopts whatever the row still owned, and
   the tid comes back with a bumped generation. *)
let test_orc_death_in_guard () =
  let alloc = Memdom.Alloc.create "orc-chaos" in
  let o = O.create alloc in
  let root =
    O.with_guard o (fun g ->
        let p = O.alloc_node g (omk o 1) in
        O.new_link_v g (O.Ptr.view p))
  in
  let dead_tid, gen_before =
    Domain.join
      (Domain.spawn (fun () ->
           Registry.with_tid (fun tid ->
               let gen = Registry.generation tid in
               match
                 O.with_guard o (fun g ->
                     let p = O.ptr g in
                     O.load g root p;
                     (* unlink while protecting: the node retires onto
                        this dying row *)
                     O.store_v g root Link.v_null;
                     raise Exit)
               with
               | () -> Alcotest.fail "guard should have raised"
               | exception Exit -> (tid, gen))))
  in
  check_bool "slot recycled on exit" true
    (Registry.slot_state dead_tid = `Free);
  check_bool "generation bumped" true
    (Registry.generation dead_tid > gen_before);
  O.flush o;
  check_int "no leak after death" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* Directory doubling under domain death: domains die right after
   witnessing a doubling (some abruptly), leaving freshly split buckets
   uninitialized; survivors must finish the lazy bucket init and adopt
   the dead domains' backlogs, and the quiesced map must be intact. *)
let test_split_grow () =
  List.iter
    (fun r ->
      Format.eprintf "%a@." Chaos.pp_split_report r;
      if not (Chaos.split_ok r) then
        Alcotest.failf "%s: split-grow contract violated:@.%a" r.Chaos.sp_name
          Chaos.pp_split_report r;
      check_bool (r.Chaos.sp_name ^ " killed domains mid-grow") true
        (r.Chaos.sp_mid_grow > 0);
      check_bool (r.Chaos.sp_name ^ " saw abrupt deaths") true
        (r.Chaos.sp_abandoned > 0))
    (Chaos.run_split_grow ())

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "churn across all schemes" `Slow
          test_churn_all_schemes;
        Alcotest.test_case "split map grows under domain death" `Slow
          test_split_grow;
        Alcotest.test_case "ptp abrupt-death containment" `Quick
          test_ptp_abrupt_death_containment;
        Alcotest.test_case "orc death inside a guard" `Quick
          test_orc_death_in_guard;
      ] );
  ]
