(* The structure × scheme matrix: each pair applied once, here.  See
   the interface for the naming scheme. *)

type queue = (module Intf.QUEUE with type item = int)
type set = (module Intf.SET)
type map = (module Orc_split_map.MAP)

module Int = struct
  type t = int
end

module Orc_hp = Orc_core.Orc.Make_hp
module Hs_skip_orc = Orc_hs_skiplist.Make ()
module Crf_skip_orc = Orc_crf_skiplist.Make ()

let queues : (string * queue) list =
  [
    ("ms-hp", (module Ms_queue.Make (Int) (Reclaim.Hp.Make)));
    ("ms-ptb", (module Ms_queue.Make (Int) (Reclaim.Ptb.Make)));
    ("ms-ebr", (module Ms_queue.Make (Int) (Reclaim.Ebr.Make)));
    ("ms-he", (module Ms_queue.Make (Int) (Reclaim.He.Make)));
    ("ms-ibr", (module Ms_queue.Make (Int) (Reclaim.Ibr.Make)));
    ("ms-ptp", (module Ms_queue.Make (Int) (Orc_core.Ptp.Make)));
    ("ms-leak", (module Ms_queue.Make (Int) (Reclaim.None_scheme.Leak)));
    ("ms-orc", (module Orc_ms_queue.Make (Int)));
    ( "ms-orc-hp",
      (module Orc_ms_queue.Impl (Int) (Orc_hp (Orc_ms_queue.Node (Int)))) );
    ("lcrq-hp", (module Lcrq.Make (Int) (Reclaim.Hp.Make)));
    ("lcrq-ptp", (module Lcrq.Make (Int) (Orc_core.Ptp.Make)));
    ("lcrq-ebr", (module Lcrq.Make (Int) (Reclaim.Ebr.Make)));
    ("lcrq-orc", (module Orc_lcrq.Make (Int)));
    ( "lcrq-orc-hp",
      (module Orc_lcrq.Impl (Int) (Orc_hp (Orc_lcrq.Node (Int)))) );
    ("kp-orc", (module Orc_kp_queue.Make (Int)));
    ( "kp-orc-hp",
      (module Orc_kp_queue.Impl (Int) (Orc_hp (Orc_kp_queue.Node (Int)))) );
    ("turn-orc", (module Orc_turn_queue.Make (Int)));
    ( "turn-orc-hp",
      (module Orc_turn_queue.Impl (Int) (Orc_hp (Orc_turn_queue.Node (Int))))
    );
  ]

let sets : (string * set) list =
  [
    ("michael-hp", (module Michael_list.Make (Reclaim.Hp.Make)));
    ("michael-ptb", (module Michael_list.Make (Reclaim.Ptb.Make)));
    ("michael-ebr", (module Michael_list.Make (Reclaim.Ebr.Make)));
    ("michael-he", (module Michael_list.Make (Reclaim.He.Make)));
    ("michael-ibr", (module Michael_list.Make (Reclaim.Ibr.Make)));
    ("michael-ptp", (module Michael_list.Make (Orc_core.Ptp.Make)));
    ("michael-leak", (module Michael_list.Make (Reclaim.None_scheme.Leak)));
    ("michael-orc", (module Orc_michael_list.Make ()));
    ("harris-orc", (module Orc_harris_list.Make ()));
    ( "harris-orc-hp",
      (module Orc_harris_list.Impl (Orc_hp (Orc_michael_list.N))) );
    ("hs-orc", (module Orc_hs_list.Make ()));
    ("hs-orc-hp", (module Orc_hs_list.Impl (Orc_hp (Orc_michael_list.N))));
    ("tbkp-orc", (module Orc_tbkp_list.Make ()));
    ("tbkp-orc-hp", (module Orc_tbkp_list.Impl (Orc_hp (Orc_tbkp_list.N))));
    ("nmtree-hp", (module Nm_tree.Make (Reclaim.Hp.Make)));
    ("nmtree-he", (module Nm_tree.Make (Reclaim.He.Make)));
    ("nmtree-ebr", (module Nm_tree.Make (Reclaim.Ebr.Make)));
    ("nmtree-ibr", (module Nm_tree.Make (Reclaim.Ibr.Make)));
    ("nmtree-ptp", (module Nm_tree.Make (Orc_core.Ptp.Make)));
    ("nmtree-orc", (module Orc_nm_tree.Make ()));
    ("nmtree-orc-hp", (module Orc_nm_tree.Impl (Orc_hp (Orc_nm_tree.N))));
    ("hs-skip-orc", (module Hs_skip_orc));
    ( "hs-skip-orc-hp",
      (module Orc_hs_skiplist.Impl (Orc_hp (Skiplist_base.N))) );
    ("crf-skip-orc", (module Crf_skip_orc));
    ( "crf-skip-orc-hp",
      (module Orc_crf_skiplist.Impl (Orc_hp (Skiplist_base.N))) );
  ]

let maps : (string * map) list =
  [
    ("splitmap-hp", (module Split_map.Make (Reclaim.Hp.Make)));
    ("splitmap-ebr", (module Split_map.Make (Reclaim.Ebr.Make)));
    ("splitmap-ptp", (module Split_map.Make (Orc_core.Ptp.Make)));
    ("splitmap-orc", (module Orc_split_map.Make ()));
    ("splitmap-orc-hp", (module Orc_split_map.Make_hp ()));
  ]

let find group entries name =
  match List.assoc_opt name entries with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Ds.Catalog: no %s named %S" group name)

let queue = find "queue" queues
let map = find "map" maps

let set name =
  match List.assoc_opt name maps with
  | Some (module M) -> (module M : Intf.SET)
  | None -> find "set" sets name
