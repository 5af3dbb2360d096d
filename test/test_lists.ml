(* Linked-list set tests, generic over implementation and scheme.  The
   same battery runs over: Michael's list under every manual scheme, and
   the OrcGC versions of Michael, Harris (original!), and Herlihy-Shavit
   (wait-free lookups, under both OrcGC backends) — the latter two being
   the structures for which no manual scheme is applicable (paper §2,
   obstacles 1-3). *)

open Util

open Set_battery

module M_hp = Ds.Michael_list.Make (Reclaim.Hp.Make)
module M_ptb = Ds.Michael_list.Make (Reclaim.Ptb.Make)
module M_ebr = Ds.Michael_list.Make (Reclaim.Ebr.Make)
module M_he = Ds.Michael_list.Make (Reclaim.He.Make)
module M_ibr = Ds.Michael_list.Make (Reclaim.Ibr.Make)
module M_ptp = Ds.Michael_list.Make (Orc_core.Ptp.Make)
module M_orc = Ds.Orc_michael_list.Make ()
module Harris_orc = Ds.Orc_harris_list.Make ()
module Hs_orc = Ds.Orc_hs_list.Make ()

module Hs_orc_hp =
  Ds.Orc_hs_list.Impl (Orc_core.Orc.Make_hp (Ds.Orc_michael_list.N))

module Tbkp_orc = Ds.Orc_tbkp_list.Make ()

module Harris_orc_hp =
  Ds.Orc_harris_list.Impl (Orc_core.Orc.Make_hp (Ds.Orc_michael_list.N))

module Tbkp_orc_hp =
  Ds.Orc_tbkp_list.Impl (Orc_core.Orc.Make_hp (Ds.Orc_tbkp_list.N))

module B_m_hp = Battery (struct let name = "michael-hp" end) (M_hp)
module B_m_ptb = Battery (struct let name = "michael-ptb" end) (M_ptb)
module B_m_ebr = Battery (struct let name = "michael-ebr" end) (M_ebr)
module B_m_he = Battery (struct let name = "michael-he" end) (M_he)
module B_m_ibr = Battery (struct let name = "michael-ibr" end) (M_ibr)
module B_m_ptp = Battery (struct let name = "michael-ptp" end) (M_ptp)
module B_m_orc = Battery (struct let name = "michael-orc" end) (M_orc)
module B_harris = Battery (struct let name = "harris-orc" end) (Harris_orc)
module B_hs = Battery (struct let name = "hs-orc" end) (Hs_orc)
module B_tbkp = Battery (struct let name = "tbkp-orc" end) (Tbkp_orc)
module B_hs_hp = Battery (struct let name = "hs-orc-hp" end) (Hs_orc_hp)
module B_harris_hp =
  Battery (struct let name = "harris-orc-hp" end) (Harris_orc_hp)
module B_tbkp_hp = Battery (struct let name = "tbkp-orc-hp" end) (Tbkp_orc_hp)

(* HS-specific: lookups through logically deleted nodes must still be
   answered (and raise nothing) while a writer removes the key. *)
let test_hs_lookup_during_removal () =
  let s = Hs_orc.create () in
  for k = 1 to 50 do
    ignore (Hs_orc.add s k)
  done;
  run_domains_exn 2 (fun ~i ~tid:_ ->
      if i = 0 then
        for k = 1 to 50 do
          ignore (Hs_orc.remove s k);
          ignore (Hs_orc.add s k)
        done
      else
        for _ = 1 to 20 do
          for k = 1 to 50 do
            ignore (Hs_orc.contains s k)
          done
        done);
  Hs_orc.destroy s;
  Hs_orc.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Hs_orc.alloc s))

let suite =
  [
    ("list:michael-hp", B_m_hp.cases);
    ("list:michael-ptb", B_m_ptb.cases);
    ("list:michael-ebr", B_m_ebr.cases);
    ("list:michael-he", B_m_he.cases);
    ("list:michael-ibr", B_m_ibr.cases);
    ("list:michael-ptp", B_m_ptp.cases);
    ("list:michael-orc", B_m_orc.cases);
    ("list:harris-orc", B_harris.cases);
    ("list:hs-orc", B_hs.cases);
    ("list:tbkp-orc", B_tbkp.cases);
    ("hs:orc-hp", B_hs_hp.cases);
    ("list:harris-orc-hp", B_harris_hp.cases);
    ("list:tbkp-orc-hp", B_tbkp_hp.cases);
    ( "list:hs-specific",
      [
        Alcotest.test_case "wait-free lookup during removal" `Slow
          test_hs_lookup_during_removal;
      ] );
    ( "list:key-range",
      (let sentinels = [ min_int; max_int ] in
       [
         Alcotest.test_case "michael-hp rejects sentinels" `Quick
           (rejects_keys (module M_hp) sentinels);
         Alcotest.test_case "michael-orc rejects sentinels" `Quick
           (rejects_keys (module M_orc) sentinels);
         Alcotest.test_case "hs-orc rejects sentinels" `Quick
           (rejects_keys (module Hs_orc) sentinels);
       ]) );
  ]
