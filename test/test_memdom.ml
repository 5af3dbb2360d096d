(* Unit tests for the explicit-lifecycle heap: the substrate all
   reclamation guarantees are checked against. *)

open Util

let test_lifecycle () =
  let a = Memdom.Alloc.create "t" in
  let h = Memdom.Alloc.hdr a () in
  check_bool "starts live" true (Memdom.Hdr.lifecycle h = Memdom.Hdr.Live);
  Memdom.Hdr.check_access h;
  Memdom.Hdr.mark_retired h;
  check_bool "retired" true (Memdom.Hdr.lifecycle h = Memdom.Hdr.Retired);
  (* retired objects are still accessible (obstacle 2 of the paper) *)
  Memdom.Hdr.check_access h;
  Memdom.Alloc.free a h;
  check_bool "freed" true (Memdom.Hdr.is_freed h)

let test_use_after_free () =
  let a = Memdom.Alloc.create "t" in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Alloc.free a h;
  Alcotest.check_raises "strict access after free"
    (Memdom.Hdr.Use_after_free "t#0") (fun () -> Memdom.Hdr.check_access h)

let test_pool_mode_tolerates_uaf () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Alloc.free a h;
  (* type-stable pool memory: reading freed objects is defined *)
  Memdom.Hdr.check_access h;
  check_bool "still freed" true (Memdom.Hdr.is_freed h)

let test_double_free () =
  let a = Memdom.Alloc.create "t" in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Alloc.free a h;
  Alcotest.check_raises "double free" (Memdom.Hdr.Double_free "t#0") (fun () ->
      Memdom.Alloc.free a h)

let test_double_retire () =
  let a = Memdom.Alloc.create "t" in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Hdr.mark_retired h;
  Alcotest.check_raises "double retire" (Memdom.Hdr.Double_retire "t#0")
    (fun () -> Memdom.Hdr.mark_retired h)

let test_unretire () =
  let a = Memdom.Alloc.create "t" in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Hdr.mark_retired h;
  Memdom.Hdr.unretire h;
  check_bool "live again" true (Memdom.Hdr.lifecycle h = Memdom.Hdr.Live);
  (* unretire of an already-live header is a tolerated race *)
  Memdom.Hdr.unretire h;
  Memdom.Hdr.mark_retired h;
  check_bool "retire after unretire" true
    (Memdom.Hdr.lifecycle h = Memdom.Hdr.Retired)

let test_generation_bumps () =
  let a = Memdom.Alloc.create "t" in
  let h = Memdom.Alloc.hdr a () in
  let g0 = Memdom.Hdr.generation h in
  Memdom.Hdr.mark_retired h;
  Memdom.Hdr.unretire h;
  Memdom.Alloc.free a h;
  check_bool "generation grows" true (Memdom.Hdr.generation h > g0)

let test_counters () =
  let a = Memdom.Alloc.create "t" in
  let hs = List.init 10 (fun _ -> Memdom.Alloc.hdr a ()) in
  check_int "allocated" 10 (Memdom.Alloc.allocated a);
  check_int "live" 10 (Memdom.Alloc.live a);
  List.iteri (fun i h -> if i < 4 then Memdom.Alloc.free a h) hs;
  check_int "freed" 4 (Memdom.Alloc.freed a);
  check_int "live after free" 6 (Memdom.Alloc.live a)

let test_uids_unique_across_domains () =
  let a = Memdom.Alloc.create "t" in
  let per_domain = 1000 in
  let uid_lists =
    run_domains 4 (fun ~i:_ ~tid:_ ->
        List.init per_domain (fun _ -> (Memdom.Alloc.hdr a ()).Memdom.Hdr.uid))
  in
  let all = List.concat uid_lists in
  let sorted = List.sort_uniq compare all in
  check_int "no duplicate uids" (4 * per_domain) (List.length sorted);
  check_int "allocated counter" (4 * per_domain) (Memdom.Alloc.allocated a)

let test_era_clock () =
  let a = Memdom.Alloc.create "t" in
  let e0 = Memdom.Alloc.era a in
  let e1 = Memdom.Alloc.bump_era a in
  check_bool "bump advances" true (e1 = e0 + 1);
  let h = Memdom.Alloc.hdr a () in
  check_int "birth era snapshots clock" e1 (Memdom.Hdr.birth_era h)

let test_concurrent_free_single_winner () =
  (* Two domains racing to free the same header: exactly one wins, the
     other gets Double_free. *)
  for _ = 1 to 50 do
    let a = Memdom.Alloc.create "t" in
    let h = Memdom.Alloc.hdr a () in
    let outcomes =
      run_domains 2 (fun ~i:_ ~tid:_ ->
          match Memdom.Alloc.free a h with
          | () -> `Freed
          | exception Memdom.Hdr.Double_free _ -> `Lost)
    in
    let winners = List.filter (( = ) `Freed) outcomes in
    check_int "one winner" 1 (List.length winners)
  done

let test_stats_fake_clock () =
  (* [?clock] makes interval math deterministic: no sleeping, no
     wall-clock slop in the [diff] interval. *)
  let t = ref 10.0 in
  let clock () =
    let now = !t in
    t := now +. 2.5;
    now
  in
  let a = Memdom.Alloc.create "t" in
  let h1 = Memdom.Alloc.hdr a () in
  let s0 = Memdom.Stats.take ~clock a in
  let _h2 = Memdom.Alloc.hdr a () in
  Memdom.Alloc.free a h1;
  let s1 = Memdom.Stats.take ~clock a in
  check_bool "fake clock stamps at" true (s0.Memdom.Stats.at = 10.0);
  check_bool "fake clock advances" true (s1.Memdom.Stats.at = 12.5);
  let d = Memdom.Stats.diff s0 s1 in
  check_int "allocated delta" 1 d.Memdom.Stats.allocated;
  check_int "freed delta" 1 d.Memdom.Stats.freed;
  check_int "live delta" 0 d.Memdom.Stats.live;
  check_bool "interval is exact" true (d.Memdom.Stats.at = 2.5)

(* ------------------------------------------------------------------ *)
(* Type-stable pool allocator.                                         *)

(* Every lifecycle CAS advances the generation word by exactly one —
   the whitebox property behind "a reader can detect any interleaved
   transition by comparing generations". *)
let test_gen_bumps_once_per_transition () =
  let h =
    Memdom.Hdr.make ~uid:1 ~label:(Memdom.Hdr.intern "w")
      ~strict:false ~birth_era:1
  in
  let step name g f =
    f ();
    check_int name (g + 1) (Memdom.Hdr.generation h);
    g + 1
  in
  let g = Memdom.Hdr.generation h in
  let g = step "retire bumps once" g (fun () -> Memdom.Hdr.mark_retired h) in
  let g = step "unretire bumps once" g (fun () -> Memdom.Hdr.unretire h) in
  let g = step "free bumps once" g (fun () -> Memdom.Hdr.mark_freed h) in
  let _ =
    step "recycle bumps once" g (fun () ->
        Memdom.Hdr.recycle h ~uid:2 ~birth_era:3)
  in
  check_bool "recycle revives" true (Memdom.Hdr.lifecycle h = Memdom.Hdr.Live);
  check_int "recycle restamps uid" 2 h.Memdom.Hdr.uid;
  check_int "recycle restamps birth era" 3 (Memdom.Hdr.birth_era h)

let test_recycle_live_raises () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let h = Memdom.Alloc.hdr a () in
  check_bool "recycling a live header is a double free" true
    (match Memdom.Hdr.recycle h ~uid:99 ~birth_era:1 with
    | () -> false
    | exception Memdom.Hdr.Double_free _ -> true);
  Memdom.Hdr.mark_retired h;
  check_bool "recycling a retired header is a double free" true
    (match Memdom.Hdr.recycle h ~uid:99 ~birth_era:1 with
    | () -> false
    | exception Memdom.Hdr.Double_free _ -> true)

(* The tentpole contract: the pool hands back the same physical header
   (no allocation), with a fresh uid and a strictly monotone generation
   across its whole pooled lifetime. *)
let test_pool_recycles_same_header () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let h0 = Memdom.Alloc.hdr a () in
  let gens = ref [ Memdom.Hdr.generation h0 ] in
  let uids = ref [ h0.Memdom.Hdr.uid ] in
  Memdom.Alloc.free a h0;
  for _ = 1 to 50 do
    let h = Memdom.Alloc.hdr a () in
    check_bool "physically the same header" true (h == h0);
    gens := Memdom.Hdr.generation h :: !gens;
    uids := h.Memdom.Hdr.uid :: !uids;
    Memdom.Alloc.free a h
  done;
  let strictly_decreasing l =
    (* gens were consed newest-first *)
    fst
      (List.fold_left
         (fun (ok, prev) g ->
           match prev with
           | None -> (ok, Some g)
           | Some p -> (ok && g < p, Some g))
         (true, None) l)
  in
  check_bool "generation strictly monotone across recycles" true
    (strictly_decreasing !gens);
  check_int "uids never repeat" 51 (List.length (List.sort_uniq compare !uids));
  check_int "one miss (the first build)" 1 (Memdom.Alloc.pool_misses a);
  check_int "fifty hits" 50 (Memdom.Alloc.pool_hits a);
  check_bool "hit rate" true (Memdom.Alloc.hit_rate a > 0.97);
  check_int "allocated counts recycled hand-outs" 51 (Memdom.Alloc.allocated a)

(* Remote free: a different domain returns the header, which waits in
   that domain's outbox for the owner; the domain exits before the
   outbox fills, so the header reaches the owner through the orphan
   pool, on the owner's next (batched) refill. *)
let test_pool_remote_free () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let owner_tid = Atomicx.Registry.tid () in
  let h = Memdom.Alloc.hdr a () in
  (match
     run_domains 1 (fun ~i:_ ~tid ->
         check_bool "freeing from a different slot" true (tid <> owner_tid);
         Memdom.Alloc.free a h)
   with
  | [ () ] -> ()
  | _ -> assert false);
  check_int "routed through the transfer stack" 1 (Memdom.Alloc.remote_frees a);
  let h2 = Memdom.Alloc.hdr a () in
  check_bool "owner recycles the remotely freed header" true (h2 == h);
  check_int "one batched refill" 1 (Memdom.Alloc.refills a);
  check_int "counted as a hit" 1 (Memdom.Alloc.pool_hits a)

(* Remote frees travel to their owner in batches: a live domain that
   frees a batch's worth (32) of the owner's headers sends them as one
   array onto the owner's transfer stack, and the owner's next dry
   acquire takes it whole — one refill, every header back, none twice,
   nothing through the orphan pool. *)
let test_pool_remote_batch () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let batch = 32 in
  let hs = List.init batch (fun _ -> Memdom.Alloc.hdr a ()) in
  let freed = Atomic.make false and finish = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomicx.Registry.with_tid (fun _ ->
            List.iter (Memdom.Alloc.free a) hs;
            Atomic.set freed true;
            while not (Atomic.get finish) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get freed) do
    Domain.cpu_relax ()
  done;
  let back = List.init batch (fun _ -> Memdom.Alloc.hdr a ()) in
  let misses = Memdom.Alloc.pool_misses a in
  Atomic.set finish true;
  Domain.join d;
  check_int "every free was remote" batch (Memdom.Alloc.remote_frees a);
  check_int "one refill took the batch" 1 (Memdom.Alloc.refills a);
  check_int "every hand-out a hit" batch (Memdom.Alloc.pool_hits a);
  check_int "no miss beyond the first builds" batch misses;
  check_bool "every header came back" true
    (List.for_all (fun h -> List.memq h back) hs);
  check_int "none twice" batch (List.length (List.sort_uniq compare
    (List.map (fun h -> h.Memdom.Hdr.uid) back)))

(* A partial outbox does not wait for a full batch when its tid runs
   dry: the freeing domain's own miss sends the one header it holds for
   the owner, and the owner takes it from the transfer stack while that
   domain is still alive — nothing through the orphan pool. *)
let test_pool_miss_sends_outbox () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let h = Memdom.Alloc.hdr a () in
  let sent = Atomic.make false and finish = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomicx.Registry.with_tid (fun _ ->
            Memdom.Alloc.free a h;
            ignore (Memdom.Alloc.hdr a ());
            Atomic.set sent true;
            while not (Atomic.get finish) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get sent) do
    Domain.cpu_relax ()
  done;
  let h2 = Memdom.Alloc.hdr a () in
  Atomic.set finish true;
  Domain.join d;
  check_bool "the owner recycles it while the freer lives" true (h2 == h);
  check_int "one refill" 1 (Memdom.Alloc.refills a)

(* [Handle.node]'s mode split: on Pool a freed node's arena slot comes
   back with its record, which [renew] re-initialises in place (counted
   as a node reuse); on System the slot is re-used but [mk] builds a new
   record every time, so the freed one is never re-issued and touching
   it still raises. *)
type cell = { mutable c_hdr : Memdom.Hdr.t; mutable c_val : int }

let test_handle_node_modes () =
  let lives mode =
    let a = Memdom.Alloc.create ~mode "cells" in
    let arena = Memdom.Handle.arena ~hdr:(fun c -> c.c_hdr) () in
    let mk _ hdr v = { c_hdr = hdr; c_val = v } in
    let renew c hdr v =
      c.c_hdr <- hdr;
      c.c_val <- v;
      c
    in
    let cells =
      List.init 4 (fun v ->
          let c = Memdom.Handle.node a arena ~tid:(Atomicx.Registry.tid ()) mk
              renew v in
          ignore (Atomicx.Link.v_ptr_in arena c);
          check_int "initialised" v c.c_val;
          Memdom.Alloc.free a c.c_hdr;
          c)
    in
    check_int "one slot served every life" 1
      (Atomicx.Link.arena_capacity arena);
    (a, cells)
  in
  let a, cells = lives Memdom.Alloc.Pool in
  check_bool "Pool: one record, re-initialised" true
    (List.for_all (fun c -> c == List.hd cells) cells);
  check_int "Pool: three reuses" 3 (Memdom.Alloc.node_reuses a);
  let a, cells = lives Memdom.Alloc.System in
  check_int "System: no reuse" 0 (Memdom.Alloc.node_reuses a);
  List.iteri
    (fun i c ->
      List.iteri
        (fun j d -> if i < j then check_bool "a record per life" false (c == d))
        cells;
      check_int "the freed record kept its value" i c.c_val;
      Alcotest.check_raises "a stale access raises"
        (Memdom.Hdr.Use_after_free (Printf.sprintf "cells#%d" c.c_hdr.uid))
        (fun () -> Memdom.Hdr.check_access c.c_hdr))
    cells

(* Domain death: the dying slot's free-list is published to the orphan
   pool by the quarantine cleaner, and a survivor's first dry acquire
   adopts it — no header is ever stranded. *)
let test_pool_orphan_adoption () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let n = 8 in
  let dead =
    run_domains 1 (fun ~i:_ ~tid:_ ->
        let hs = List.init n (fun _ -> Memdom.Alloc.hdr a ()) in
        (* local frees: they sit on this domain's own free-list when it
           dies *)
        List.iter (Memdom.Alloc.free a) hs;
        hs)
    |> List.concat
  in
  let adopted = List.init n (fun _ -> Memdom.Alloc.hdr a ()) in
  List.iter
    (fun h ->
      check_bool "adopted from the dead domain's free-list" true
        (List.memq h dead))
    adopted;
  check_int "all hits after adoption" n (Memdom.Alloc.pool_hits a);
  check_bool "gens still monotone: every adoptee is live again" true
    (List.for_all
       (fun h -> Memdom.Hdr.lifecycle h = Memdom.Hdr.Live)
       adopted)

let contains_substr hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pool_stats_and_pp () =
  let a = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "p" in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Alloc.free a h;
  ignore (Memdom.Alloc.hdr a ());
  let s = Memdom.Stats.take a in
  check_int "snapshot hits" 1 s.Memdom.Stats.pool_hits;
  check_int "snapshot misses" 1 s.Memdom.Stats.pool_misses;
  check_bool "snapshot hit rate" true (Memdom.Stats.hit_rate s = 0.5);
  let printed = Format.asprintf "%a" Memdom.Alloc.pp_stats a in
  check_bool "pp_stats prints hit rate" true (contains_substr printed "hit-rate");
  (* System allocators stay pool-silent in both stats and pp *)
  let sys = Memdom.Alloc.create "s" in
  ignore (Memdom.Alloc.hdr sys ());
  check_int "system has no pool traffic" 0
    (Memdom.Stats.take sys).Memdom.Stats.pool_hits;
  let sys_printed = Format.asprintf "%a" Memdom.Alloc.pp_stats sys in
  check_bool "system pp omits pool section" true
    (not (contains_substr sys_printed "pool"))

(* [check_access] reads the header's freed word, which [mark_freed]
   sets once it has won the Freed transition: a free on another domain
   is seen once joined, a Pool header never raises, and [state] still
   decides a second free. *)
let test_freed_word () =
  let a = Memdom.Alloc.create "x" in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Hdr.check_access h;
  Domain.join (Domain.spawn (fun () -> Memdom.Alloc.free a h));
  let name = Printf.sprintf "x#%d" h.Memdom.Hdr.uid in
  Alcotest.check_raises "freed on another domain"
    (Memdom.Hdr.Use_after_free name) (fun () -> Memdom.Hdr.check_access h);
  Alcotest.check_raises "double free" (Memdom.Hdr.Double_free name) (fun () ->
      Memdom.Alloc.free a h);
  let p = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "y" in
  let hp = Memdom.Alloc.hdr p () in
  Domain.join (Domain.spawn (fun () -> Memdom.Alloc.free p hp));
  Memdom.Hdr.check_access hp;
  check_bool "pool header freed" true (Memdom.Hdr.is_freed hp);
  (* recycling a strict header clears its freed word *)
  let s =
    Memdom.Hdr.make ~uid:1 ~label:(Memdom.Hdr.intern "s")
      ~strict:true ~birth_era:0
  in
  Memdom.Hdr.mark_freed s;
  Memdom.Hdr.recycle s ~uid:2 ~birth_era:0;
  Memdom.Hdr.check_access s

(* The era stamps share one plain word: each half round-trips alone,
   and a recycle restamps the birth and clears the death. *)
let test_era_word () =
  let module H = Memdom.Hdr in
  let h = H.make ~uid:1 ~label:(H.intern "e") ~strict:false ~birth_era:5 in
  check_int "birth" 5 (H.birth_era h);
  check_int "not retired" max_int (H.death_era h);
  H.mark_retired h;
  H.set_death_era h 9;
  check_int "death" 9 (H.death_era h);
  check_int "birth untouched" 5 (H.birth_era h);
  H.set_death_era h (-1);
  check_int "out-of-range death reads as none" max_int (H.death_era h);
  H.set_death_era h 12;
  H.mark_freed h;
  H.recycle h ~uid:2 ~birth_era:20;
  check_int "recycled birth" 20 (H.birth_era h);
  check_int "recycle resets the death stamp" max_int (H.death_era h)

(* Each allocator interns its name once; the id rides in the bits of
   [access] above the freed state, so [describe] still prints the name
   of every header, strict or tolerant, and a recycled Pool header
   keeps its label across lives. *)
let test_label_ids () =
  let names = List.init 200 (fun i -> Printf.sprintf "lbl-%d" (i mod 50)) in
  let allocs =
    List.mapi
      (fun i n ->
        let mode = if i mod 2 = 0 then Memdom.Alloc.System else Pool in
        (n, Memdom.Alloc.create ~mode n))
      names
  in
  List.iter
    (fun (n, a) ->
      let h = Memdom.Alloc.hdr a () in
      check_bool "label round-trips" true (Memdom.Hdr.label h = n);
      check_int "same name, same id" (Memdom.Hdr.intern n)
        (Memdom.Hdr.intern n);
      Memdom.Hdr.check_access h;
      Memdom.Alloc.free a h;
      if Memdom.Alloc.mode a = Memdom.Alloc.System then
        Alcotest.check_raises "describe prints label#uid"
          (Memdom.Hdr.Use_after_free
             (Printf.sprintf "%s#%d" n h.Memdom.Hdr.uid))
          (fun () -> Memdom.Hdr.check_access h)
      else Memdom.Hdr.check_access h)
    allocs;
  check_bool "distinct names, distinct ids" true
    (Memdom.Hdr.intern "lbl-1" <> Memdom.Hdr.intern "lbl-2");
  let p = Memdom.Alloc.create ~mode:Memdom.Alloc.Pool "pooled-label" in
  let h0 = Memdom.Alloc.hdr p () in
  Memdom.Alloc.free p h0;
  let h1 = Memdom.Alloc.hdr p () in
  check_bool "recycled" true (h1 == h0);
  check_bool "recycled header keeps its label" true
    (Memdom.Hdr.label h1 = "pooled-label");
  Memdom.Hdr.mark_retired h1;
  Alcotest.check_raises "and prints it"
    (Memdom.Hdr.Double_retire
       (Printf.sprintf "pooled-label#%d" h1.Memdom.Hdr.uid))
    (fun () -> Memdom.Hdr.mark_retired h1)

(* A sink whose clock reads [now]; its retire->free histogram. *)
let clocked_sink now =
  let s = Obs.Sink.make ~capacity:64 ~clock:(fun () -> !now) () in
  (s, Option.get (Obs.Sink.retire_free_hist s))

(* The retire stamp shares a word with the arena slot: registering a
   slot keeps the stamp, stamping keeps the slot, and [Alloc.free]
   reads the stamp before it releases the slot, so the latency still
   lands in the histogram. *)
let test_retire_stamp_and_slot () =
  let now = ref 1_000 in
  let sink, hist = clocked_sink now in
  let a = Memdom.Alloc.create ~sink "stamp" in
  let ar = Memdom.Handle.arena ~hdr:Fun.id () in
  let tid = Atomicx.Registry.tid () in
  let retire h =
    Memdom.Hdr.mark_retired h;
    Memdom.Hdr.set_retired_stamp h
      (Obs.Sink.on_retire sink ~tid ~uid:h.Memdom.Hdr.uid)
  in
  (* registered first, then retired *)
  let h = Memdom.Alloc.hdr a () in
  ignore (Atomicx.Link.v_ptr_in ar h);
  let s = Memdom.Hdr.slot h in
  check_bool "registered" true (s >= 0);
  retire h;
  check_int "stamp" 1_000 (Memdom.Hdr.retired_stamp h);
  check_int "slot kept by the stamp" s (Memdom.Hdr.slot h);
  now := 1_250;
  Memdom.Alloc.free a h;
  check_int "slot released" (-1) (Memdom.Hdr.slot h);
  check_int "stamp kept by the release" 1_000 (Memdom.Hdr.retired_stamp h);
  check_int "arena slot handed back" 0 (Atomicx.Link.arena_live ar);
  let r = Obs.Hist.report hist in
  check_int "one latency sample" 1 r.count;
  check_int "latency read before the release" 250 r.max;
  (* stamped first, then registered (an orc node retired and relinked
     before its first publication would do this) *)
  let h = Memdom.Alloc.hdr a () in
  now := 2_000;
  retire h;
  ignore (Atomicx.Link.v_ptr_in ar h);
  check_int "stamp kept by the registration" 2_000
    (Memdom.Hdr.retired_stamp h);
  check_int "re-issued slot" s (Memdom.Hdr.slot h);
  Memdom.Hdr.set_retired_stamp h 0;
  check_int "cleared stamp" 0 (Memdom.Hdr.retired_stamp h);
  check_int "slot kept by the clear" s (Memdom.Hdr.slot h);
  Memdom.Alloc.free a h;
  check_int "an unstamped free records no latency" 1
    (Obs.Hist.report hist).count

(* The stamp keeps the retire time mod 2^stamp_bits; the latency is
   taken mod 2^stamp_bits too, so a retire just below the wrap and a
   free just above it still measure the true gap. *)
let test_retire_stamp_wrap () =
  let wrap = 1 lsl Obs.Sink.stamp_bits in
  let now = ref ((3 * wrap) - 5) in
  let sink, hist = clocked_sink now in
  let a = Memdom.Alloc.create ~sink "wrap" in
  let tid = Atomicx.Registry.tid () in
  let h = Memdom.Alloc.hdr a () in
  Memdom.Hdr.mark_retired h;
  Memdom.Hdr.set_retired_stamp h
    (Obs.Sink.on_retire sink ~tid ~uid:h.Memdom.Hdr.uid);
  check_int "stamp mod 2^stamp_bits" (wrap - 5) (Memdom.Hdr.retired_stamp h);
  now := (3 * wrap) + 10;
  Memdom.Alloc.free a h;
  let r = Obs.Hist.report hist in
  check_int "one sample" 1 r.count;
  check_int "latency across the wrap" 15 r.max

let suite =
  [
    ( "memdom",
      [
        Alcotest.test_case "lifecycle transitions" `Quick test_lifecycle;
        Alcotest.test_case "use-after-free raises (System)" `Quick
          test_use_after_free;
        Alcotest.test_case "pool mode tolerates stale access" `Quick
          test_pool_mode_tolerates_uaf;
        Alcotest.test_case "double free raises" `Quick test_double_free;
        Alcotest.test_case "double retire raises" `Quick test_double_retire;
        Alcotest.test_case "unretire" `Quick test_unretire;
        Alcotest.test_case "generation bumps" `Quick test_generation_bumps;
        Alcotest.test_case "alloc counters" `Quick test_counters;
        Alcotest.test_case "uids unique across domains" `Quick
          test_uids_unique_across_domains;
        Alcotest.test_case "era clock" `Quick test_era_clock;
        Alcotest.test_case "concurrent double-free detected" `Quick
          test_concurrent_free_single_winner;
        Alcotest.test_case "stats snapshots with a fake clock" `Quick
          test_stats_fake_clock;
        Alcotest.test_case "generation bumps once per transition" `Quick
          test_gen_bumps_once_per_transition;
        Alcotest.test_case "recycling a non-freed header raises" `Quick
          test_recycle_live_raises;
        Alcotest.test_case "pool recycles the same physical header" `Quick
          test_pool_recycles_same_header;
        Alcotest.test_case "pool remote free via transfer stack" `Quick
          test_pool_remote_free;
        Alcotest.test_case "pool remote frees travel in batches" `Quick
          test_pool_remote_batch;
        Alcotest.test_case "pool miss sends the partial outbox" `Quick
          test_pool_miss_sends_outbox;
        Alcotest.test_case "Handle.node re-uses records on Pool only" `Quick
          test_handle_node_modes;
        Alcotest.test_case "pool orphan adoption on domain death" `Quick
          test_pool_orphan_adoption;
        Alcotest.test_case "pool counters, stats and pp" `Quick
          test_pool_stats_and_pp;
        Alcotest.test_case "check_access reads the freed word" `Quick
          test_freed_word;
        Alcotest.test_case "era stamps share one plain word" `Quick
          test_era_word;
        Alcotest.test_case "label ids round-trip" `Quick test_label_ids;
        Alcotest.test_case "retire stamp shares the slot word" `Quick
          test_retire_stamp_and_slot;
        Alcotest.test_case "retire latency across the stamp wrap" `Quick
          test_retire_stamp_wrap;
      ] );
  ]
