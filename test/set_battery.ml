(* Shared test battery for set-like structures (lists, trees, skip
   lists): sequential semantics, randomized model check, deterministic
   concurrent disjoint-range check, and contention stress with
   use-after-free detection and leak accounting. *)

open Util

module IntSet = Set.Make (Int)

module Battery (L : sig
  val name : string
end)
(S : Ds.Intf.SET) =
struct
  let test_sequential_semantics () =
    let s = S.create () in
    check_bool "empty" false (S.contains s 5);
    check_bool "add new" true (S.add s 5);
    check_bool "add dup" false (S.add s 5);
    check_bool "present" true (S.contains s 5);
    check_bool "add more" true (S.add s 3);
    check_bool "add more" true (S.add s 9);
    check_bool "sorted" true (S.to_list s = [ 3; 5; 9 ]);
    check_bool "remove" true (S.remove s 5);
    check_bool "remove absent" false (S.remove s 5);
    check_bool "gone" false (S.contains s 5);
    check_bool "others intact" true (S.contains s 3 && S.contains s 9);
    check_int "size" 2 (S.size s);
    S.destroy s;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live (S.alloc s))

  let prop_matches_model =
    qtest ~count:50
      (L.name ^ " matches set model")
      QCheck2.Gen.(
        list_size (int_range 1 250) (pair (int_range 0 2) (int_range 1 40)))
      (fun ops ->
        let s = S.create () in
        let model = ref IntSet.empty in
        let ok =
          List.for_all
            (fun (op, k) ->
              match op with
              | 0 ->
                  let expect = not (IntSet.mem k !model) in
                  model := IntSet.add k !model;
                  S.add s k = expect
              | 1 ->
                  let expect = IntSet.mem k !model in
                  model := IntSet.remove k !model;
                  S.remove s k = expect
              | _ -> S.contains s k = IntSet.mem k !model)
            ops
        in
        let ok = ok && S.to_list s = IntSet.elements !model in
        S.destroy s;
        S.flush s;
        ok && Memdom.Alloc.live (S.alloc s) = 0)

  (* Disjoint key ranges per domain: each domain's final state is
     deterministic, so the union is checkable after the join. *)
  let test_concurrent_disjoint_ranges () =
    let s = S.create () in
    let domains = 4 and span = 50 and iters = 2_000 in
    let models =
      run_domains domains (fun ~i ~tid:_ ->
          let base = (i + 1) * 1_000 in
          let rng = Atomicx.Rng.create ((i + 1) * 6151) in
          let model = ref IntSet.empty in
          for _ = 1 to iters do
            let k = base + Atomicx.Rng.int rng span in
            match Atomicx.Rng.int rng 3 with
            | 0 ->
                let expect = not (IntSet.mem k !model) in
                model := IntSet.add k !model;
                if S.add s k <> expect then Alcotest.failf "add %d" k
            | 1 ->
                let expect = IntSet.mem k !model in
                model := IntSet.remove k !model;
                if S.remove s k <> expect then Alcotest.failf "remove %d" k
            | _ ->
                if S.contains s k <> IntSet.mem k !model then
                  Alcotest.failf "contains %d" k
          done;
          !model)
    in
    let expected =
      List.fold_left IntSet.union IntSet.empty models |> IntSet.elements
    in
    check_bool "final set is the union of per-domain models" true
      (S.to_list s = expected);
    S.destroy s;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live (S.alloc s))

  (* Shared hot keys: heavy add/remove/contains contention on few keys.
     Correct reclamation means no Use_after_free escapes a worker and the
     structure stays a sorted set. *)
  let test_concurrent_contention () =
    let s = S.create () in
    run_domains_exn 4 (fun ~i ~tid:_ ->
        let rng = Atomicx.Rng.create ((i + 1) * 2237) in
        for _ = 1 to 2_500 do
          let k = 1 + Atomicx.Rng.int rng 8 in
          match Atomicx.Rng.int rng 3 with
          | 0 -> ignore (S.add s k)
          | 1 -> ignore (S.remove s k)
          | _ -> ignore (S.contains s k)
        done);
    let l = S.to_list s in
    check_bool "sorted strictly increasing" true
      (List.sort_uniq compare l = l);
    S.destroy s;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live (S.alloc s));
    check_int "nothing pending" 0 (S.unreclaimed s)

  (* A single key cycled rapidly by one writer while readers poll it:
     exercises the retire/reuse fast path and the reinsertion behaviour
     (obstacle 3) at maximum frequency. *)
  let test_single_key_cycling () =
    let s = S.create () in
    run_domains_exn 3 (fun ~i ~tid:_ ->
        if i = 0 then
          for _ = 1 to 4_000 do
            ignore (S.add s 7);
            ignore (S.remove s 7)
          done
        else
          for _ = 1 to 4_000 do
            ignore (S.contains s 7)
          done);
    check_bool "key absent or present, set coherent" true
      (match S.to_list s with [] | [ 7 ] -> true | _ -> false);
    S.destroy s;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live (S.alloc s))

  (* Read-only traversals racing a churning writer must never observe a
     freed node (the whole point of a reclamation scheme): any violation
     raises Use_after_free out of the reader domain. *)
  let test_readers_vs_churn () =
    let s = S.create () in
    for k = 1 to 64 do
      ignore (S.add s k)
    done;
    run_domains_exn 4 (fun ~i ~tid:_ ->
        let rng = Atomicx.Rng.create ((i + 1) * 65537) in
        if i = 0 then
          for _ = 1 to 4_000 do
            let k = 1 + Atomicx.Rng.int rng 64 in
            ignore (S.remove s k);
            ignore (S.add s k)
          done
        else
          for _ = 1 to 4_000 do
            ignore (S.contains s (1 + Atomicx.Rng.int rng 64))
          done);
    S.destroy s;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live (S.alloc s))

  (* Memory stays bounded while the structure churns: sample live objects
     mid-run; they must stay within reachable + the scheme's slack, not
     grow with the operation count. *)
  let live_objects_run () =
    let s = S.create () in
    let keys = 32 in
    for k = 1 to keys do
      ignore (S.add s k)
    done;
    let stop = Atomic.make false in
    let peak = ref 0 in
    let series = ref [] in
    let watcher =
      Domain.spawn (fun () ->
          let ticks = ref 0 in
          while not (Atomic.get stop) do
            let l = Memdom.Alloc.live (S.alloc s) in
            if l > !peak then peak := l;
            incr ticks;
            if !ticks land 1023 = 0 then series := l :: !series;
            Domain.cpu_relax ()
          done)
    in
    run_domains_exn 2 (fun ~i ~tid:_ ->
        let rng = Atomicx.Rng.create ((i + 1) * 97) in
        for _ = 1 to 8_000 do
          let k = 1 + Atomicx.Rng.int rng keys in
          if Atomicx.Rng.bool rng then ignore (S.add s k)
          else ignore (S.remove s k)
        done);
    Atomic.set stop true;
    Domain.join watcher;
    S.destroy s;
    S.flush s;
    check_int "no leak" 0 (Memdom.Alloc.live (S.alloc s));
    (!peak, List.rev !series)

  let live_objects_peak () = fst (live_objects_run ())

  let test_live_objects_bounded () =
    (* generous slack: sentinels, per-thread scan thresholds, skip-list
       towers; the point is that 16k ops on 32 keys don't accumulate.
       A blown bound gets one traced retry; see [Util.trace_retry]. *)
    let peak = live_objects_peak () in
    let peak = trace_retry ~name:L.name ~bound:4_096 ~first:peak live_objects_run in
    check_bool
      (Printf.sprintf "peak live %d bounded (not O(ops))" peak)
      true (peak < 4_096)

  let cases =
    [
      Alcotest.test_case (L.name ^ ": sequential semantics") `Quick
        test_sequential_semantics;
      prop_matches_model;
      Alcotest.test_case
        (L.name ^ ": concurrent disjoint ranges")
        `Slow test_concurrent_disjoint_ranges;
      Alcotest.test_case
        (L.name ^ ": contention stress, no UAF, no leak")
        `Slow test_concurrent_contention;
      Alcotest.test_case
        (L.name ^ ": single-key cycling (obstacle 3)")
        `Slow test_single_key_cycling;
      Alcotest.test_case
        (L.name ^ ": readers vs churn, no UAF")
        `Slow test_readers_vs_churn;
      Alcotest.test_case
        (L.name ^ ": live objects bounded under churn")
        `Slow test_live_objects_bounded;
    ]
end


(* A key outside the set's range: [add], [remove] and [contains] each
   raise [Invalid_argument], allocate nothing, and leave the set usable. *)
let rejects_keys (type t) (module S : Ds.Intf.SET with type t = t) bad () =
  let s = S.create () in
  check_bool "add in range" true (S.add s 1);
  let live = Memdom.Alloc.live (S.alloc s) in
  List.iter
    (fun k ->
      List.iter
        (fun (op, f) ->
          match f s k with
          | _ -> Alcotest.failf "%s %d accepted" op k
          | exception Invalid_argument _ -> ())
        [ ("add", S.add); ("remove", S.remove); ("contains", S.contains) ])
    bad;
  check_int "nothing allocated" live (Memdom.Alloc.live (S.alloc s));
  check_bool "still usable" true
    (S.add s 2 && S.contains s 1 && S.remove s 1 && S.to_list s = [ 2 ]);
  S.destroy s;
  S.flush s;
  check_int "no leak" 0 (Memdom.Alloc.live (S.alloc s))
