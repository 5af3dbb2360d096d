(* Failure injection: exceptions thrown at awkward points, workers dying
   mid-workload, and stalled readers.  The substrate and guard scopes
   must contain each fault: no lost protections, no leaks, and — for the
   stalled-reader case — exactly the per-scheme memory behaviour the
   paper's Table 1 predicts (EBR blocks all reclamation; PTP pins only
   what is actually protected). *)

open Util
open Atomicx

exception Boom

type tnode = { hdr : Memdom.Hdr.t; mutable value : int }

module TN = struct
  type t = tnode

  let hdr n = n.hdr
end

module Ebr = Reclaim.Ebr.Make (TN)
module Ptp = Orc_core.Ptp.Make (TN)

let tn_arena = Memdom.Handle.arena ~hdr:TN.hdr ()

type onode = { hdr : Memdom.Hdr.t; v : int; next : onode Link.t }

module O = Orc_core.Orc.Make (struct
  type t = onode

  let hdr n = n.hdr
  let iter_links n f = f n.next
end)

let mk o v hdr = { hdr; v; next = Link.make_in (O.arena o) Link.Null }

(* An exception inside a guard must release every protection: the node
   loaded before the crash is reclaimable afterwards. *)
let test_exception_in_guard_releases () =
  let alloc = Memdom.Alloc.create "faults" in
  let o = O.create alloc in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.alloc_node g (mk o 1) in
      O.store_v g root (O.Ptr.view p));
  (match
     O.with_guard o (fun g ->
         let h = O.ptr g in
         O.load g root h;
         O.store_v g root Link.v_null;
         (* node pinned by h; now die *)
         raise Boom)
   with
  | () -> Alcotest.fail "should have raised"
  | exception Boom -> ());
  (* the crashed guard's protections are gone: node reclaimed *)
  check_int "no leak after crash" 0 (Memdom.Alloc.live alloc);
  check_int "nothing pending" 0 (O.unreclaimed o)

(* A failing node constructor must not leak its header. *)
let test_exception_in_constructor () =
  let alloc = Memdom.Alloc.create "faults" in
  let o = O.create alloc in
  (match O.with_guard o (fun g -> ignore (O.alloc_node g (fun _ -> raise Boom)))
   with
  | () -> Alcotest.fail "should have raised"
  | exception Boom -> ());
  check_int "constructor failure leaks nothing" 0 (Memdom.Alloc.live alloc)

(* Workers dying randomly mid-workload: survivors keep operating, and
   the structure remains coherent and leak-free. *)
module L = Ds.Orc_michael_list.Make ()

let test_worker_deaths_mid_workload () =
  let s = L.create () in
  let results =
    run_domains 6 (fun ~i ~tid:_ ->
        let rng = Rng.create ((i + 1) * 433) in
        match
          for k = 1 to 3_000 do
            let key = 1 + Rng.int rng 128 in
            (match Rng.int rng 3 with
            | 0 -> ignore (L.add s key)
            | 1 -> ignore (L.remove s key)
            | _ -> ignore (L.contains s key));
            (* a third of the workers die a third of the way in *)
            if i mod 3 = 0 && k = 1_000 then raise Boom
          done
        with
        | () -> `Survived
        | exception Boom -> `Died)
  in
  check_int "two workers died" 2
    (List.length (List.filter (( = ) `Died) results));
  let l = L.to_list s in
  check_bool "coherent after deaths" true (List.sort_uniq compare l = l);
  L.destroy s;
  L.flush s;
  check_int "no leak after deaths" 0 (Memdom.Alloc.live (L.alloc s))

(* The paper's EBR indictment, §2: "the retire is always blocking" — a
   single reader that never goes quiescent blocks ALL reclamation, while
   a pointer-based scheme pins only what that reader actually protects. *)
let stalled_reader_growth (module S : Reclaim.Scheme_intf.S
                            with type node = tnode) name =
  (* tid 9 is staged, not acquired: reserve it so protection scans
     treat its row as in use *)
  Atomicx.Registry.reserve 10;
  let alloc = Memdom.Alloc.create name in
  let s = S.create ~max_hps:4 alloc in
  (* the stalled reader: enters an operation (EBR) / protects one node
     (PTP) and never finishes *)
  let stalled = { hdr = Memdom.Alloc.hdr alloc (); value = 0 } in
  let link = Link.make_in tn_arena (Link.Ptr stalled) in
  S.begin_op s ~tid:9;
  ignore (S.get_protected_v s ~tid:9 ~idx:0 link);
  (* churn: retire a thousand unrelated nodes *)
  for i = 1 to 1_000 do
    let n = { hdr = Memdom.Alloc.hdr alloc (); value = i } in
    S.retire s ~tid:0 n
  done;
  S.flush s;
  let pinned = S.unreclaimed s in
  (* release the reader: everything must drain *)
  S.end_op s ~tid:9;
  Link.set link Link.Null;
  S.retire s ~tid:0 stalled;
  S.flush s;
  check_int (name ^ ": drains after release") 0 (S.unreclaimed s);
  check_int (name ^ ": no leak") 0 (Memdom.Alloc.live alloc);
  pinned

let test_stalled_reader_ebr_vs_ptp () =
  let ebr_pinned = stalled_reader_growth (module Ebr) "ebr-stall" in
  let ptp_pinned = stalled_reader_growth (module Ptp) "ptp-stall" in
  (* EBR: the stalled epoch pins (essentially) all 1000 retired nodes.
     PTP: only the one protected node could ever be pinned — and it was
     not even retired, so nothing is. *)
  check_bool
    (Printf.sprintf "EBR pins ~everything (%d)" ebr_pinned)
    true (ebr_pinned > 900);
  check_bool
    (Printf.sprintf "PTP pins ~nothing (%d)" ptp_pinned)
    true (ptp_pinned <= 1)

(* Same story at the data-structure level with OrcGC: a guard that stalls
   holding one handle pins O(1), not O(churn). *)
let test_stalled_orc_guard_pins_o1 () =
  let alloc = Memdom.Alloc.create "faults" in
  let o = O.create alloc in
  let root = Link.make_in (O.arena o) Link.Null in
  O.with_guard o (fun g ->
      let p = O.alloc_node g (mk o 0) in
      O.store_v g root (O.Ptr.view p));
  let release = Atomic.make false in
  let pinned_during = Atomic.make (-1) in
  run_domains_exn 2 (fun ~i ~tid:_ ->
      if i = 0 then
        O.with_guard o (fun g ->
            let h = O.ptr g in
            O.load g root h;
            (* stall holding the handle *)
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done)
      else begin
        (* churn: replace the root node many times *)
        O.with_guard o (fun g ->
            let p = O.ptr g in
            for k = 1 to 1_000 do
              let n = O.alloc_node_into g p (mk o k) in
              O.store_v g root (O.v_ptr o n)
            done);
        Atomic.set pinned_during (Memdom.Alloc.live alloc);
        Atomic.set release true
      end);
  (* while stalled: the churned nodes were reclaimed as they went —
     live stayed O(1), not O(1000) *)
  check_bool
    (Printf.sprintf "pinned O(1) during stall (%d)"
       (Atomic.get pinned_during))
    true
    (Atomic.get pinned_during < 16);
  O.with_guard o (fun g -> O.store_v g root Link.v_null);
  O.flush o;
  check_int "no leak" 0 (Memdom.Alloc.live alloc)

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "exception in guard releases protections" `Quick
          test_exception_in_guard_releases;
        Alcotest.test_case "exception in constructor leaks nothing" `Quick
          test_exception_in_constructor;
        Alcotest.test_case "worker deaths mid-workload" `Slow
          test_worker_deaths_mid_workload;
        Alcotest.test_case "stalled reader: EBR blocks, PTP does not" `Quick
          test_stalled_reader_ebr_vs_ptp;
        Alcotest.test_case "stalled orc guard pins O(1)" `Slow
          test_stalled_orc_guard_pins_o1;
      ] );
  ]
