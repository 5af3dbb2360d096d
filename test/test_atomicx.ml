(* Unit and property tests for the atomic-utilities substrate. *)

open Util
open Atomicx

let test_backoff_monotone () =
  let b = Backoff.create ~min:1 ~max:8 () in
  for _ = 1 to 20 do
    Backoff.once b
  done;
  Backoff.reset b;
  Backoff.once b;
  check_bool "usable after reset" true true

let test_backoff_invalid () =
  Alcotest.check_raises "min<1" (Invalid_argument "Backoff.create") (fun () ->
      ignore (Backoff.create ~min:0 ()));
  Alcotest.check_raises "max<min" (Invalid_argument "Backoff.create")
    (fun () -> ignore (Backoff.create ~min:10 ~max:2 ()))

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 50 (fun _ -> Rng.next_int64 c) in
  check_bool "split stream differs" true (xs <> ys)

let prop_rng_int_in_bounds =
  qtest "Rng.int stays in bounds"
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      0 <= v && v < bound)

let prop_rng_float_in_unit =
  qtest "Rng.float in [0,1)" QCheck2.Gen.int (fun seed ->
      let r = Rng.create seed in
      let f = Rng.float r in
      0.0 <= f && f < 1.0)

let test_registry_distinct_tids () =
  let tids = run_domains 8 (fun ~i:_ ~tid -> tid) in
  let uniq = List.sort_uniq compare tids in
  check_int "distinct tids" 8 (List.length uniq);
  List.iter
    (fun tid ->
      check_bool "in range" true (tid >= 0 && tid < Registry.max_threads))
    tids

let test_registry_reuse_after_release () =
  let round () = List.sort compare (run_domains 4 (fun ~i:_ ~tid -> tid)) in
  let r1 = round () in
  let r2 = round () in
  (* with_tid releases slots, so a second wave reuses the same pool *)
  check_bool "slots recycled" true (r1 = r2)

let test_registry_stable_within_domain () =
  (* the checks run on the main domain: Alcotest's reporting is not
     domain-safe, and two workers asserting at once can corrupt its
     formatter *)
  let unstable =
    run_domains 2 (fun ~i:_ ~tid ->
        List.init 10 (fun _ -> Registry.tid ())
        |> List.filter (fun t -> t <> tid))
  in
  List.iter (fun l -> check_int "stable" 0 (List.length l)) unstable

(* Slot release bumps the generation: a recycled tid is distinguishable
   from its previous life. *)
let test_registry_generation_bumps () =
  let tid, gen =
    Domain.join
      (Domain.spawn (fun () ->
           Registry.with_tid (fun tid -> (tid, Registry.generation tid))))
  in
  check_bool "released" true (Registry.slot_state tid = `Free);
  check_bool "generation bumped on release" true (Registry.generation tid > gen)

(* The quarantine pass runs registered cleaners while the slot is still
   Quarantined (so the tid cannot be re-issued mid-cleanup), then frees
   it. *)
let test_registry_quarantine_runs_cleaners () =
  let seen = ref [] in
  let cleaner tid = seen := (tid, Registry.slot_state tid) :: !seen in
  Registry.on_quarantine cleaner;
  let tid =
    Domain.join (Domain.spawn (fun () -> Registry.with_tid (fun tid -> tid)))
  in
  check_bool "cleaner saw the dying tid quarantined" true
    (List.mem (tid, `Quarantined) !seen);
  check_bool "slot free afterwards" true (Registry.slot_state tid = `Free);
  (* keep the closure alive until here: registration is weak *)
  ignore (Sys.opaque_identity (Some cleaner))

(* [abandon] models abrupt death: the slot stays Active (still pinned
   by whatever the dead thread published) until a survivor proves the
   owner gone and calls [force_release], which runs the same quarantine
   pass on the caller. *)
let test_registry_abandon_and_force_release () =
  let cleaned = ref [] in
  let cleaner tid = cleaned := tid :: !cleaned in
  Registry.on_quarantine cleaner;
  let tid =
    Domain.join
      (Domain.spawn (fun () -> Registry.with_tid (fun _ -> Registry.abandon ())))
  in
  check_bool "abandoned slot stays Active" true
    (Registry.slot_state tid = `Active);
  check_bool "no cleanup yet" true (not (List.mem tid !cleaned));
  check_bool "force_release reclaims" true (Registry.force_release tid);
  check_bool "cleaner ran on the survivor" true (List.mem tid !cleaned);
  check_bool "slot free" true (Registry.slot_state tid = `Free);
  check_bool "second force_release is a no-op" false (Registry.force_release tid);
  ignore (Sys.opaque_identity (Some cleaner))

(* [active] counts Active slots, scanning only up to the watermark. *)
let test_registry_active_counts () =
  let n = 4 in
  let barrier = Barrier.create n in
  let doms =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun _ ->
                Barrier.wait barrier;
                let a = Registry.active () in
                Barrier.wait barrier;
                a)))
  in
  let counts = List.map Domain.join doms in
  List.iter
    (fun a ->
      check_bool "sees all concurrent registrants" true (a >= n);
      check_bool "bounded by watermark" true (a <= Registry.high_water ()))
    counts

(* Exhaustion raises a diagnostic, and force_release recovers from it:
   the registry survives a full wipe-out of leaked slots. *)
let test_registry_too_many_threads_diagnostic () =
  let leaked = ref [] in
  (try
     while true do
       let tid =
         Domain.join
           (Domain.spawn (fun () ->
                match Registry.with_tid (fun _ -> Registry.abandon ()) with
                | tid -> Ok tid
                | exception e -> Error e))
       in
       match tid with Ok t -> leaked := t :: !leaked | Error e -> raise e
     done
   with Registry.Too_many_threads msg ->
     check_bool "message names max_threads" true
       (let sub = Printf.sprintf "max_threads=%d" Registry.max_threads in
      let len = String.length sub in
      let ok = ref false in
      for i = 0 to String.length msg - len do
        if String.sub msg i len = sub then ok := true
      done;
      !ok));
  List.iter
    (fun t -> check_bool "recovered" true (Registry.force_release t))
    !leaked;
  (* the pool is usable again *)
  let tid =
    Domain.join (Domain.spawn (fun () -> Registry.with_tid (fun t -> t)))
  in
  check_bool "slots re-issued after recovery" true
    (tid >= 0 && tid < Registry.max_threads)

let test_bitmask_sequential_acquire () =
  let b = Bitmask.create 10 in
  check_int "capacity" 10 (Bitmask.capacity b);
  for i = 0 to 9 do
    check_bool "lowest free" true (Bitmask.acquire b ~from:0 = i)
  done;
  check_bool "exhausted" true (Bitmask.acquire b ~from:0 = -1);
  check_int "all taken" 10 (Bitmask.count b)

let test_bitmask_release_reuses_lowest () =
  let b = Bitmask.create 8 in
  for _ = 0 to 7 do
    ignore (Bitmask.acquire b ~from:0)
  done;
  Bitmask.release b 5;
  Bitmask.release b 2;
  check_bool "freed 2 not taken" false (Bitmask.mem b 2);
  check_bool "lowest freed wins" true (Bitmask.acquire b ~from:0 = 2);
  check_bool "then the next" true (Bitmask.acquire b ~from:0 = 5);
  check_bool "full again" true (Bitmask.acquire b ~from:0 = -1)

let test_bitmask_from_floor () =
  let b = Bitmask.create 8 in
  check_bool "respects from" true (Bitmask.acquire b ~from:3 = 3);
  check_bool "0 still free below the floor" false (Bitmask.mem b 0);
  check_bool "skips taken 3" true (Bitmask.acquire b ~from:3 = 4);
  check_bool "negative from is 0" true (Bitmask.acquire b ~from:(-5) = 0);
  check_bool "from at capacity" true (Bitmask.acquire b ~from:8 = -1)

let test_bitmask_cross_word () =
  (* 100 > 62 bits: exercises the multi-word carry path *)
  let b = Bitmask.create 100 in
  for i = 0 to 99 do
    check_bool "dense fill" true (Bitmask.acquire b ~from:0 = i)
  done;
  check_bool "exhausted" true (Bitmask.acquire b ~from:0 = -1);
  Bitmask.release b 63;
  Bitmask.release b 99;
  check_bool "free slot in word 1" true (Bitmask.acquire b ~from:0 = 63);
  check_bool "last slot" true (Bitmask.acquire b ~from:70 = 99);
  check_bool "exhausted again" true (Bitmask.acquire b ~from:0 = -1)

let test_bitmask_invalid () =
  Alcotest.check_raises "capacity<1" (Invalid_argument "Bitmask.create")
    (fun () -> ignore (Bitmask.create 0));
  let b = Bitmask.create 4 in
  Alcotest.check_raises "release out of range"
    (Invalid_argument "Bitmask.release") (fun () -> Bitmask.release b 4);
  Alcotest.check_raises "release negative"
    (Invalid_argument "Bitmask.release") (fun () -> Bitmask.release b (-1))

module IntSet = Set.Make (Int)

let prop_bitmask_matches_set_model =
  qtest ~count:100 "Bitmask matches free-set model"
    QCheck2.Gen.(
      pair (int_range 1 130)
        (list_size (int_range 1 200) (pair (int_range 0 1) (int_range 0 129))))
    (fun (cap, ops) ->
      let b = Bitmask.create cap in
      let taken = ref IntSet.empty in
      List.for_all
        (fun (op, k) ->
          if op = 0 then begin
            (* acquire from k: model says lowest i >= k not taken *)
            let from = k mod cap in
            let expect =
              let rec go i =
                if i >= cap then -1
                else if IntSet.mem i !taken then go (i + 1)
                else i
              in
              go from
            in
            let got = Bitmask.acquire b ~from in
            if got >= 0 then taken := IntSet.add got !taken;
            got = expect
          end
          else begin
            let i = k mod cap in
            if IntSet.mem i !taken then begin
              Bitmask.release b i;
              taken := IntSet.remove i !taken
            end;
            Bitmask.count b = IntSet.cardinal !taken
          end)
        ops)

let test_shard_aggregates_across_domains () =
  let s = Shard.create () in
  let per = 10_000 in
  run_domains_exn 4 (fun ~i ~tid ->
      for _ = 1 to per do
        Shard.incr s ~tid
      done;
      (* negative deltas from a different pattern per domain *)
      Shard.add s ~tid (-i));
  check_int "sum of all cells" ((4 * per) - (0 + 1 + 2 + 3)) (Shard.get s)

let test_shard_fetch_incr_tickets () =
  let s = Shard.create () in
  let tickets =
    run_domains 4 (fun ~i:_ ~tid ->
        List.init 1_000 (fun _ -> Shard.fetch_incr s ~tid))
  in
  (* per-thread tickets are each a dense 0..n-1 sequence *)
  List.iter
    (fun ts -> check_bool "dense per-cell" true (ts = List.init 1_000 Fun.id))
    tickets;
  check_int "total" 4_000 (Shard.get s)

let test_barrier_aligns () =
  let n = 6 in
  let counter = Atomic.make 0 in
  let b = Barrier.create n in
  let seen =
    run_domains n (fun ~i:_ ~tid:_ ->
        ignore (Atomic.fetch_and_add counter 1);
        Barrier.wait b;
        (* after the barrier, every arrival increment must be visible *)
        Atomic.get counter)
  in
  List.iter (fun c -> check_int "all arrived" n c) seen

let test_barrier_reusable () =
  let n = 4 in
  let b = Barrier.create n in
  run_domains_exn n (fun ~i:_ ~tid:_ ->
      for _ = 1 to 100 do
        Barrier.wait b
      done)

(* Link tests run on word links over a small arena of [lnode]s. *)
type lnode = { id : int; mutable slot : int }

let link_arena () =
  Link.arena
    ~slot_of:(fun n -> n.slot)
    ~on_register:(fun n s ~release:_ -> n.slot <- s)
    ()

let lnode id = { id; slot = -1 }

let test_link_basics () =
  let ar = link_arena () in
  let l = Link.make_in ar Link.Null in
  check_bool "null" true (Link.get l = Link.Null);
  let n = lnode 1 in
  Link.set l (Link.Ptr n);
  (match Link.target (Link.get l) with
  | Some x -> check_bool "target" true (x == n)
  | None -> Alcotest.fail "no target");
  check_bool "not marked" false (Link.is_marked (Link.get l));
  Link.set l (Link.Mark n);
  check_bool "marked" true (Link.is_marked (Link.get l));
  check_bool "marked view" true (Link.v_is_marked (Link.view l));
  check_int "marked view decodes" 1 (Link.v_target_exn l (Link.view l)).id;
  check_bool "poison" true (Link.is_poison Link.Poison)

(* The write stamp: a view loaded before an A->B->A rewrite names the
   same target with the same bits, yet fails both its CAS and its
   [view_eq].  Null carries no identity: a loaded null view still
   matches after the link was written and nulled again. *)
let test_link_stale_view () =
  let ar = link_arena () in
  let a = lnode 1 and b = lnode 2 in
  let l = Link.make_in ar (Link.Ptr a) in
  let seen = Link.view l in
  check_bool "A->B" true (Link.cas_v l seen (Link.v_ptr_in ar b));
  check_bool "B->A" true (Link.cas_v l (Link.view l) (Link.v_ptr_in ar a));
  check_bool "same target and bits again" true
    (Link.v_same (Link.view l) seen);
  check_bool "stale view_eq fails" false (Link.view_eq (Link.view l) seen);
  check_bool "stale CAS fails" false (Link.cas_v l seen (Link.v_ptr_in ar b));
  check_bool "A still installed" true (Link.v_target_exn l (Link.view l) == a);
  check_bool "loaded view succeeds" true
    (Link.cas_v l (Link.view l) Link.v_null);
  let null_seen = Link.view l in
  Link.set l (Link.Ptr b);
  Link.set l Link.Null;
  check_bool "null views compare by payload" true
    (Link.view_eq (Link.view l) null_seen);
  check_bool "null CAS matches any null" true
    (Link.cas_v l null_seen (Link.v_ptr_in ar a));
  check_bool "A installed" true (Link.get l = Link.Ptr a)

let test_link_same () =
  let ar = link_arena () in
  let n = lnode 1 and m = lnode 2 in
  let ln = Link.make_in ar (Link.Ptr n) and lm = Link.make_in ar (Link.Ptr m) in
  let other = Link.make_in ar Link.Null in
  Link.set other (Link.Ptr n);
  Link.set other (Link.Ptr n);
  check_bool "null=null" true (Link.v_same Link.v_null Link.v_null);
  check_bool "ptr same target, other link and stamp" true
    (Link.v_same (Link.view ln) (Link.view other));
  check_bool "stamps differ" false
    (Link.view_eq (Link.view ln) (Link.view other));
  check_bool "ptr diff target" false
    (Link.v_same (Link.view ln) (Link.view lm));
  check_bool "ptr vs mark" false
    (Link.v_same (Link.view ln) (Link.v_mark (Link.view ln)));
  check_bool "clean strips the mark" true
    (Link.v_same (Link.view ln) (Link.v_clean (Link.v_mark (Link.view ln))))

let test_link_exchange () =
  let ar = link_arena () in
  let n = lnode 1 in
  let l = Link.make_in ar (Link.Ptr n) in
  let old = Link.exchange_v l Link.v_poison in
  check_bool "old returned" true (Link.v_same old (Link.v_ptr_in ar n));
  check_bool "new visible" true (Link.is_poison (Link.get l));
  check_bool "poison view" true (Link.v_is_poison (Link.view l))

let test_link_cas_parallel_single_winner () =
  (* n domains CAS the same expected view: exactly one must win. *)
  let ar = link_arena () in
  let l = Link.make_in ar (Link.Ptr (lnode 0)) in
  let seen = Link.view l in
  let mine = Array.init 6 (fun i -> Link.v_ptr_in ar (lnode (i + 1))) in
  let winners =
    run_domains 6 (fun ~i ~tid:_ ->
        if Link.cas_v l seen (Link.v_mark mine.(i)) then 1 else 0)
  in
  check_int "single winner" 1 (List.fold_left ( + ) 0 winners)

let suite =
  [
    ( "atomicx",
      [
        Alcotest.test_case "backoff monotone+reset" `Quick test_backoff_monotone;
        Alcotest.test_case "backoff rejects bad args" `Quick test_backoff_invalid;
        Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "rng split independent" `Quick
          test_rng_split_independent;
        prop_rng_int_in_bounds;
        prop_rng_float_in_unit;
        Alcotest.test_case "registry distinct tids" `Quick
          test_registry_distinct_tids;
        Alcotest.test_case "registry reuses released slots" `Quick
          test_registry_reuse_after_release;
        Alcotest.test_case "registry generation bumps" `Quick
          test_registry_generation_bumps;
        Alcotest.test_case "registry quarantine runs cleaners" `Quick
          test_registry_quarantine_runs_cleaners;
        Alcotest.test_case "registry abandon + force_release" `Quick
          test_registry_abandon_and_force_release;
        Alcotest.test_case "registry active counts" `Quick
          test_registry_active_counts;
        Alcotest.test_case "registry exhaustion diagnostic" `Quick
          test_registry_too_many_threads_diagnostic;
        Alcotest.test_case "registry stable within domain" `Quick
          test_registry_stable_within_domain;
        Alcotest.test_case "bitmask sequential acquire" `Quick
          test_bitmask_sequential_acquire;
        Alcotest.test_case "bitmask release reuses lowest" `Quick
          test_bitmask_release_reuses_lowest;
        Alcotest.test_case "bitmask from floor" `Quick test_bitmask_from_floor;
        Alcotest.test_case "bitmask cross word" `Quick test_bitmask_cross_word;
        Alcotest.test_case "bitmask rejects bad args" `Quick
          test_bitmask_invalid;
        prop_bitmask_matches_set_model;
        Alcotest.test_case "shard aggregates across domains" `Quick
          test_shard_aggregates_across_domains;
        Alcotest.test_case "shard fetch_incr dense tickets" `Quick
          test_shard_fetch_incr_tickets;
        Alcotest.test_case "barrier aligns" `Quick test_barrier_aligns;
        Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
        Alcotest.test_case "link basics" `Quick test_link_basics;
        Alcotest.test_case "link CAS fails on a stale view (A->B->A)" `Quick
          test_link_stale_view;
        Alcotest.test_case "link same" `Quick test_link_same;
        Alcotest.test_case "link exchange" `Quick test_link_exchange;
        Alcotest.test_case "link CAS single winner" `Quick
          test_link_cas_parallel_single_winner;
      ] );
  ]
