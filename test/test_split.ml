(* Split-ordered map invariants: the so-key encoding (bit-reversal
   round trip, split-ordering of dummies vs regular keys), the shared
   set battery over five schemes, out-of-range keys rejected, dummy-node-never-retired, and
   grow-under-churn across multiple doublings with exact leak
   accounting.  The chaos battery (domain killed mid-grow) lives in
   Chaos.run_split_grow and is driven from test_chaos. *)

open Util
open Set_battery
module So = Ds.Split_order

module Sm_hp = Ds.Split_map.Make (Reclaim.Hp.Make)
module Sm_ebr = Ds.Split_map.Make (Reclaim.Ebr.Make)
module Sm_ptp = Ds.Split_map.Make (Orc_core.Ptp.Make)
module Sm_orc = Ds.Orc_split_map.Make ()
module Sm_orc_hp = Ds.Orc_split_map.Make_hp ()

module B_hp = Battery (struct let name = "splitmap-hp" end) (Sm_hp)
module B_ebr = Battery (struct let name = "splitmap-ebr" end) (Sm_ebr)
module B_ptp = Battery (struct let name = "splitmap-ptp" end) (Sm_ptp)
module B_orc = Battery (struct let name = "splitmap-orc" end) (Sm_orc)
module B_orc_hp = Battery (struct let name = "splitmap-orc-hp" end) (Sm_orc_hp)

(* {2 so-key encoding} *)

let test_rev60_roundtrip () =
  let cases = [ 0; 1; 2; 3; 0xff; 0xdeadbeef; So.max_key; So.max_key - 1 ] in
  List.iter
    (fun h -> check_int "rev60 involution" h (So.rev60 (So.rev60 h)))
    cases;
  check_int "rev60 0" 0 (So.rev60 0);
  check_int "rev60 1 = msb" (1 lsl (So.hash_bits - 1)) (So.rev60 1)

let prop_rev60_roundtrip =
  qtest "rev60 is an involution on the 60-bit domain"
    QCheck2.Gen.(int_range 0 So.max_key)
    (fun h -> So.rev60 (So.rev60 h) = h)

let prop_split_ordering =
  (* For every key and table size: the key's bucket dummy precedes it,
     and the dummy that splits the bucket at the doubled size falls on
     the correct side of the key — the invariant that makes directory
     doubling sound without moving any node. *)
  qtest "dummies split buckets in so-key order"
    QCheck2.Gen.(pair (int_range 0 So.max_key) (int_range 1 19))
    (fun (key, log_size) ->
      let size = 1 lsl log_size in
      let h = So.hash key in
      let b = So.bucket_of ~hash:h ~size in
      let so = So.regular h in
      let split = b + size in
      let splits_left = So.bucket_of ~hash:h ~size:(2 * size) = b in
      So.dummy b < so
      && (if splits_left then so < So.dummy split else so > So.dummy split)
      && (b = 0 || So.dummy (So.parent b) < So.dummy b))

let prop_key_of_regular =
  qtest "so-key decodes to its key"
    QCheck2.Gen.(int_range 0 So.max_key)
    (fun key -> So.key_of_regular (So.regular (So.hash key)) = key)

let prop_so_keys_unique =
  qtest "distinct keys have distinct so-keys"
    QCheck2.Gen.(pair (int_range 0 So.max_key) (int_range 0 So.max_key))
    (fun (a, b) ->
      a = b || So.regular (So.hash a) <> So.regular (So.hash b))

(* {2 dummy-node-never-retired} *)

let test_dummy_never_retired () =
  let s = Sm_hp.create () in
  let keys = 600 in
  for k = 1 to keys do
    ignore (Sm_hp.add s k)
  done;
  check_bool "grew" true (Sm_hp.buckets s > Ds.Split_map.initial_buckets);
  for k = 1 to keys do
    ignore (Sm_hp.remove s k)
  done;
  Sm_hp.flush s;
  let st = Sm_hp.stats s in
  (* every retire was a successful remove: no dummy ever retired *)
  check_int "retires = removes" keys st.Reclaim.Scheme_intf.retires;
  check_bool "empty but structure intact" true (Sm_hp.to_list s = []);
  check_bool "invariant holds with all dummies in place" true
    (Sm_hp.invariant s);
  (* live objects now = the dummies + tail, all freed only by destroy *)
  check_bool "dummies still live" true (Memdom.Alloc.live (Sm_hp.alloc s) > 0);
  Sm_hp.destroy s;
  Sm_hp.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Sm_hp.alloc s))

(* {2 grow under churn} *)

let grow_under_churn (type t) (module M : Ds.Orc_split_map.MAP with type t = t)
    name =
  let s = M.create () in
  let domains = 4 and span = 3_000 and iters = 6_000 in
  run_domains_exn domains (fun ~i ~tid:_ ->
      let rng = Atomicx.Rng.create ((i + 1) * 7919) in
      for _ = 1 to iters do
        let k = 1 + Atomicx.Rng.int rng span in
        match Atomicx.Rng.int rng 4 with
        | 0 | 1 -> ignore (M.add s k)
        | 2 -> ignore (M.remove s k)
        | _ -> ignore (M.contains s k)
      done);
  (* enough inserts survive that the table must have doubled ≥ 3× *)
  check_bool
    (name ^ ": >= 3 doublings")
    true
    (M.grows s >= 3 && M.buckets s >= 8 * Ds.Orc_split_map.initial_buckets);
  check_bool (name ^ ": invariant after storm") true (M.invariant s);
  let l = M.to_list s in
  check_bool (name ^ ": sorted strictly increasing") true
    (List.sort_uniq compare l = l);
  M.destroy s;
  M.flush s;
  check_int (name ^ ": no leak") 0 (Memdom.Alloc.live (M.alloc s));
  check_int (name ^ ": nothing unreclaimed") 0 (M.unreclaimed s)

let test_grow_under_churn_orc () =
  grow_under_churn (module Sm_orc) "splitmap-orc"

let test_grow_under_churn_hp () =
  grow_under_churn (module Sm_hp) "splitmap-hp"

(* {2 the directory holds each bucket's anchor} *)

let test_dir_cells () =
  let d = So.dir_create ~unset:(-1) in
  let probes = [ 0; 1; So.seg_size - 1; So.seg_size; So.max_buckets - 1 ] in
  List.iter (fun b -> check_int "fresh cell unset" (-1) (So.dir_get d b)) probes;
  List.iter (fun b -> So.dir_set d b b) probes;
  List.iter (fun b -> check_int "cell set" b (So.dir_get d b)) probes;
  check_int "neighbour in a materialized segment unset" (-1)
    (So.dir_get d (So.seg_size + 1));
  check_int "cell in an untouched segment unset" (-1)
    (So.dir_get d (2 * So.seg_size))

module Sm_orc_wb =
  Ds.Orc_split_map.Impl (Orc_core.Orc.Make (Ds.Orc_michael_list.N))

(* After a grow storm every set cell is physically its dummy's [next]
   link — which [invariant] checks, and which a cell pointing at
   another bucket's anchor breaks — and the roots alone reclaim the
   whole map. *)
let test_cells_are_anchors () =
  let s = Sm_orc_wb.create () in
  run_domains_exn 2 (fun ~i ~tid:_ ->
      let rng = Atomicx.Rng.create ((i + 1) * 104_729) in
      for _ = 1 to 4_000 do
        let k = 1 + Atomicx.Rng.int rng 3_000 in
        if Atomicx.Rng.int rng 4 = 0 then ignore (Sm_orc_wb.remove s k)
        else ignore (Sm_orc_wb.add s k)
      done);
  check_bool "grew" true (Sm_orc_wb.grows s >= 3);
  check_bool "invariant after the storm" true (Sm_orc_wb.invariant s);
  let d = Sm_orc_wb.directory s in
  let set =
    List.filter
      (fun b -> So.dir_get d b != So.dir_unset d)
      (List.init (Sm_orc_wb.buckets s) Fun.id)
  in
  (match List.rev set with
  | b :: b' :: _ ->
      let saved = So.dir_get d b in
      So.dir_set d b (So.dir_get d b');
      check_bool "a cell holding another bucket's anchor is caught" false
        (Sm_orc_wb.invariant s);
      So.dir_set d b saved;
      check_bool "restored" true (Sm_orc_wb.invariant s)
  | _ -> Alcotest.fail "fewer than two buckets initialized");
  Sm_orc_wb.destroy s;
  Sm_orc_wb.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (Sm_orc_wb.alloc s));
  check_int "nothing unreclaimed" 0 (Sm_orc_wb.unreclaimed s)

let suite =
  [
    ( "split:encoding",
      [
        Alcotest.test_case "rev60 round trip (edges)" `Quick
          test_rev60_roundtrip;
        prop_rev60_roundtrip;
        prop_split_ordering;
        prop_so_keys_unique;
        prop_key_of_regular;
      ] );
    ("splitmap:hp", B_hp.cases);
    ("splitmap:ebr", B_ebr.cases);
    ("splitmap:ptp", B_ptp.cases);
    ("splitmap:orc", B_orc.cases);
    ("splitmap:orc-hp", B_orc_hp.cases);
    ( "split:invariants",
      [
        Alcotest.test_case "dummy nodes are never retired" `Slow
          test_dummy_never_retired;
        Alcotest.test_case "grow under churn (orc, 4 domains)" `Slow
          test_grow_under_churn_orc;
        Alcotest.test_case "grow under churn (hp, 4 domains)" `Slow
          test_grow_under_churn_hp;
        Alcotest.test_case "directory cells: unset until set" `Quick
          test_dir_cells;
        Alcotest.test_case "every set cell is its dummy's next" `Quick
          test_cells_are_anchors;
      ] );
    ( "split:key-range",
      (let outside = [ -1; So.max_key + 1 ] in
       [
         Alcotest.test_case "splitmap-hp rejects outside keys" `Quick
           (rejects_keys (module Sm_hp) outside);
         Alcotest.test_case "splitmap-orc rejects outside keys" `Quick
           (rejects_keys (module Sm_orc) outside);
       ]) );
  ]
