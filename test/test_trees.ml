(* Natarajan-Mittal BST tests: the shared set battery over the manual
   variants (HP, HE, EBR, PTP, IBR) and OrcGC over both of its backends,
   plus tree-specific checks on the flag/tag cleanup machinery. *)

open Util
open Set_battery

module T_hp = Ds.Nm_tree.Make (Reclaim.Hp.Make)
module T_he = Ds.Nm_tree.Make (Reclaim.He.Make)
module T_ptp = Ds.Nm_tree.Make (Orc_core.Ptp.Make)
module T_ebr = Ds.Nm_tree.Make (Reclaim.Ebr.Make)
module T_ibr = Ds.Nm_tree.Make (Reclaim.Ibr.Make)
module T_orc = Ds.Orc_nm_tree.Make ()

(* OrcGC over its hazard-pointer backend, through the tree's [Impl] *)
module T_orc_hp = Ds.Orc_nm_tree.Impl (Orc_core.Orc.Make_hp (Ds.Orc_nm_tree.N))

module B_hp = Battery (struct let name = "nmtree-hp" end) (T_hp)
module B_he = Battery (struct let name = "nmtree-he" end) (T_he)
module B_ptp = Battery (struct let name = "nmtree-ptp" end) (T_ptp)
module B_ebr = Battery (struct let name = "nmtree-ebr" end) (T_ebr)
module B_orc = Battery (struct let name = "nmtree-orc" end) (T_orc)
module B_ibr = Battery (struct let name = "nmtree-ibr" end) (T_ibr)
module B_orc_hp = Battery (struct let name = "nmtree-orc-hp" end) (T_orc_hp)

(* A larger sequential workload shapes the tree deeper than the battery's
   small key ranges do: exercises multi-level seeks and cleanups. *)
let test_large_sequential () =
  let t = T_orc.create () in
  let n = 2_000 in
  let keys = Array.init n (fun i -> (i * 7919) mod 104729) in
  let model = ref IntSet.empty in
  Array.iter
    (fun k ->
      model := IntSet.add k !model;
      ignore (T_orc.add t k))
    keys;
  check_bool "all inserted, in order" true
    (T_orc.to_list t = IntSet.elements !model);
  Array.iteri
    (fun i k ->
      if i land 1 = 0 then begin
        model := IntSet.remove k !model;
        ignore (T_orc.remove t k)
      end)
    keys;
  check_bool "after removals" true (T_orc.to_list t = IntSet.elements !model);
  T_orc.destroy t;
  T_orc.flush t;
  check_int "no leak" 0 (Memdom.Alloc.live (T_orc.alloc t))

(* Deleting interior keys in an adversarial order forces cleanup paths
   where ancestor != grandparent. *)
let test_delete_all () =
  let t = T_hp.create () in
  let keys = List.init 200 (fun i -> i) in
  List.iter (fun k -> ignore (T_hp.add t k)) keys;
  check_int "size" 200 (T_hp.size t);
  (* remove in an inside-out order *)
  let order = List.sort (fun a b -> compare (a mod 7, a) (b mod 7, b)) keys in
  List.iter (fun k -> check_bool "removed" true (T_hp.remove t k)) order;
  check_int "empty" 0 (T_hp.size t);
  T_hp.destroy t;
  T_hp.flush t;
  check_int "no leak" 0 (Memdom.Alloc.live (T_hp.alloc t))

let suite =
  [
    ("tree:nm-hp", B_hp.cases);
    ("tree:nm-he", B_he.cases);
    ("tree:nm-ebr", B_ebr.cases);
    ("tree:nm-ptp", B_ptp.cases);
    ("tree:nm-orc", B_orc.cases);
    ("tree:nm-ibr", B_ibr.cases);
    ("tree:nm-orc-hp", B_orc_hp.cases);
    ( "tree:nm-specific",
      [
        Alcotest.test_case "large sequential build/teardown" `Slow
          test_large_sequential;
        Alcotest.test_case "delete-all with deep cleanups" `Quick
          test_delete_all;
      ] );
  ]
