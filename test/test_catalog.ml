(* The structure × scheme catalogue: one name per instantiation, every
   figure's rows resolve, and every reclaiming entry frees all it
   allocated on both allocators. *)

open Util

let test_names_unique () =
  let names =
    List.map fst Ds.Catalog.queues
    @ List.map fst Ds.Catalog.sets
    @ List.map fst Ds.Catalog.maps
  in
  check_int "entries" 48 (List.length names);
  check_int "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names));
  check_int "queues" 18 (List.length Ds.Catalog.queues);
  check_int "sets" 25 (List.length Ds.Catalog.sets);
  check_int "maps" 5 (List.length Ds.Catalog.maps)

let test_figures_resolve () =
  let resolve group find figures =
    List.iter
      (fun (fig, names) ->
        List.iter
          (fun n ->
            match find n with
            | _ -> ()
            | exception Invalid_argument _ ->
                Alcotest.failf "%s row %s is no catalogue %s" fig n group)
          names)
      figures
  in
  resolve "queue" Ds.Catalog.queue Harness.Experiments.queue_figures;
  resolve "set" Ds.Catalog.set Harness.Experiments.set_figures;
  check_bool "unknown name rejected" true
    (match Ds.Catalog.set "no-such-entry" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* create -> a few operations -> destroy + flush leaves nothing live *)
let test_leak_free mode () =
  let leaks = ref 0 in
  let freed name scheme alloc =
    if scheme = "leak" then incr leaks
    else check_int (name ^ " live after teardown") 0 (Memdom.Alloc.live alloc)
  in
  List.iter
    (fun (name, (module Q : Ds.Intf.QUEUE with type item = int)) ->
      let q = Q.create ~mode () in
      for i = 1 to 64 do
        Q.enqueue q i
      done;
      for _ = 1 to 32 do
        ignore (Q.dequeue q)
      done;
      Q.destroy q;
      Q.flush q;
      freed name Q.scheme_name (Q.alloc q))
    Ds.Catalog.queues;
  List.iter
    (fun name ->
      let (module S : Ds.Intf.SET) = Ds.Catalog.set name in
      let s = S.create ~mode () in
      for k = 1 to 64 do
        ignore (S.add s k)
      done;
      for k = 1 to 32 do
        ignore (S.remove s (2 * k))
      done;
      check_bool (name ^ " contains") true (S.contains s 1);
      check_bool (name ^ " keys") true
        (S.to_list s = List.init 32 (fun i -> (2 * i) + 1));
      S.destroy s;
      S.flush s;
      freed name S.scheme_name (S.alloc s))
    (List.map fst Ds.Catalog.sets @ List.map fst Ds.Catalog.maps);
  check_int "leak entries skipped" 2 !leaks

let suite =
  [
    ( "catalog",
      [
        Alcotest.test_case "names are unique" `Quick test_names_unique;
        Alcotest.test_case "every figure's rows resolve" `Quick
          test_figures_resolve;
        Alcotest.test_case "every entry frees all (System)" `Quick
          (test_leak_free Memdom.Alloc.System);
        Alcotest.test_case "every entry frees all (Pool)" `Quick
          (test_leak_free Memdom.Alloc.Pool);
      ] );
  ]
