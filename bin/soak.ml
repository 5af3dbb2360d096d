(* Soak test: hammer every reclaiming structure × scheme combination of
   Ds.Catalog at once with randomized mixed workloads for a configurable
   duration, then verify coherence and leak-freedom of each.  The idea
   is to find the bugs a 20-second unit test can't: rare interleavings
   in helping protocols, slow leaks through handover slots, claim
   chains, stale-helper races.

     dune exec bin/soak.exe -- --seconds 60 --workers 6

   Exits non-zero on the first violated invariant (an exception escaping
   a worker — e.g. Use_after_free — or a leak after teardown). *)

open Cmdliner
open Atomicx

(* One soak run.  [structures] pairs each structure's operation with
   its [(name, check)].  Each of [workers] domains, with its own [rng]
   and [apply = draw i], runs [apply rng op] on uniformly picked
   structures until the deadline or the first failure; then each check
   tears its structure down quiesced and returns the violations it saw.
   The result counts failed workers and violations. *)
let drive ~seconds ~workers ~seed ~draw structures =
  let ops = Array.of_list (List.map fst structures) in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let executed = Atomic.make 0 in
  let doms =
    List.init workers (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun _ ->
                let rng = Rng.create (seed + ((i + 1) * 65599)) in
                let apply = draw i in
                try
                  while not (Atomic.get stop) do
                    apply rng ops.(Rng.int rng (Array.length ops));
                    ignore (Atomic.fetch_and_add executed 1)
                  done
                with e ->
                  ignore (Atomic.fetch_and_add failures 1);
                  Printf.eprintf "worker %d: %s\n%!" i (Printexc.to_string e))))
  in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds && Atomic.get failures = 0 do
    Thread.delay 0.2
  done;
  Atomic.set stop true;
  List.iter Domain.join doms;
  Printf.printf "executed %d operations\n%!" (Atomic.get executed);
  List.fold_left
    (fun bad (name, check) ->
      let violations = check () in
      List.iter (Printf.eprintf "%s: %s\n%!" name) violations;
      bad + List.length violations)
    (Atomic.get failures)
    (List.map snd structures)

let verdict what bad ~passed =
  if bad = 0 then begin
    Printf.printf "%s passed: %s\n" what passed;
    0
  end
  else begin
    Printf.eprintf "%s FAILED: %d violations\n" what bad;
    1
  end

(* Quiesced teardown of one structure: [coherent] is read before
   [destroy] runs; then the leak check and, on pool allocators, the
   allocator's stats (pool hit rate, remote frees). *)
let teardown ~pool ~coherent ~destroy alloc =
  let violations =
    if coherent then [] else [ "structural invariant violated" ]
  in
  destroy ();
  let live = Memdom.Alloc.live alloc in
  if pool then
    Printf.printf "  %s\n%!" (Format.asprintf "%a" Memdom.Alloc.pp_stats alloc);
  if live = 0 then violations
  else violations @ [ Printf.sprintf "%d objects leaked" live ]

let ascending l = List.sort_uniq compare l = l

(* Key range of a set: a list pays O(keys) per operation, the TBKP
   list's helping more, so lists draw from fewer keys. *)
let keys name =
  match String.split_on_char '-' name with
  | "tbkp" :: _ -> 64
  | ("michael" | "harris") :: _ | [ "hs"; "orc" ] | [ "hs"; "orc"; "hp" ] ->
      256
  | _ -> 1024

(* A fresh instance of every reclaiming catalogue entry (all but the
   [leak] ones), each with one random operation and its check. *)
let structures ~mode ~pool =
  let queue (name, (module Q : Ds.Intf.QUEUE with type item = int)) =
    let q = Q.create ~mode () in
    ( (fun rng ->
        if Rng.bool rng then Q.enqueue q (Rng.int rng 1_000_000)
        else ignore (Q.dequeue q)),
      ( name,
        fun () ->
          teardown ~pool ~coherent:true (Q.alloc q) ~destroy:(fun () ->
              Q.destroy q;
              Q.flush q) ) )
  in
  let set (name, (module S : Ds.Intf.SET)) =
    let s = S.create ~mode () and range = keys name in
    ( (fun rng ->
        let k = 1 + Rng.int rng range in
        match Rng.int rng 3 with
        | 0 -> ignore (S.add s k)
        | 1 -> ignore (S.remove s k)
        | _ -> ignore (S.contains s k)),
      ( name,
        fun () ->
          teardown ~pool ~coherent:(ascending (S.to_list s)) (S.alloc s)
            ~destroy:(fun () ->
              S.destroy s;
              S.flush s) ) )
  in
  let maps = List.map (fun (n, _) -> (n, Ds.Catalog.set n)) Ds.Catalog.maps in
  let reclaiming l =
    List.filter (fun (n, _) -> not (String.ends_with ~suffix:"-leak" n)) l
  in
  List.map queue (reclaiming Ds.Catalog.queues)
  @ List.map set (reclaiming (Ds.Catalog.sets @ maps))

let run_structures seconds workers seed ~mode ~pool =
  let ts = structures ~mode ~pool in
  Printf.printf "soak: %d structures, %d workers, %.0fs, seed %d%s\n%!"
    (List.length ts) workers seconds seed
    (if pool then ", pool allocators" else "");
  let bad = drive ~seconds ~workers ~seed ~draw:(fun _ rng op -> op rng) ts in
  verdict "soak" bad ~passed:"no UAF, no incoherence, no leaks"

(* KV soak (--kv): zipfian YCSB-B traffic over every catalogue
   split-ordered map, all growing from two buckets under load, until
   the time budget runs out.  Unlike the uniform main soak, the skewed
   draw concentrates contention on a few hot keys while the long tail
   keeps forcing directory doublings; teardown asserts every map
   actually grew, holds its structural invariant, and leaks nothing. *)
let run_kv seconds workers seed ~mode ~pool =
  let keys = 50_000 in
  let map (name, (module M : Ds.Orc_split_map.MAP)) =
    let m = M.create ~mode () in
    ( (fun rng k (op : Harness.Keygen.op) ->
        match op with
        | Read -> ignore (M.contains m k)
        | Update ->
            if Rng.bool rng then ignore (M.add m k)
            else ignore (M.remove m k)),
      ( name,
        fun () ->
          let grows = M.grows m in
          (if grows >= 3 then []
           else
             [ Printf.sprintf "only %d directory doublings under load" grows ])
          @ teardown ~pool
              ~coherent:(M.invariant m && ascending (M.to_list m))
              (M.alloc m)
              ~destroy:(fun () ->
                M.destroy m;
                M.flush m) ) )
  in
  let ts = List.map map Ds.Catalog.maps in
  Printf.printf
    "soak --kv: %d split maps, %d workers, %.0fs, %d-key zipfian keyspace, \
     seed %d%s\n%!"
    (List.length ts) workers seconds keys seed
    (if pool then ", pool allocators" else "");
  let draw i =
    let kg =
      Harness.Keygen.create
        (Harness.Keygen.Zipfian { theta = Harness.Keygen.default_theta })
        ~n:keys
        ~seed:(seed lxor ((i + 1) * 65599))
    in
    fun rng op ->
      let k = 1 + Harness.Keygen.next kg in
      op rng k (Harness.Keygen.next_op kg Harness.Keygen.mix_b)
  in
  let bad = drive ~seconds ~workers ~seed ~draw ts in
  verdict "kv soak" bad
    ~passed:"every map grew, stayed coherent, and leaked nothing"

(* Run [round r] for r = 1, 2, ... until the time budget runs out or a
   round reports violations; returns the rounds run and the violations. *)
let repeat seconds round =
  let t0 = Unix.gettimeofday () in
  let rec go r bad =
    if bad = 0 && Unix.gettimeofday () -. t0 < seconds then
      go (r + 1) (round (r + 1))
    else (r, bad)
  in
  go 0 0

(* Domain-churn chaos mode (--churn): instead of long-lived workers,
   spawn waves of short-lived domains through the Chaos batteries until
   the time budget runs out, killing them at randomized points.  Every
   battery must hold the lifecycle contract on every repetition. *)
let run_churn seconds seed =
  Printf.printf "soak --churn: %.0fs budget, seed %d, %d batteries\n%!"
    seconds seed
    (List.length Chaos.batteries);
  let total_domains = ref 0 in
  let rounds, bad =
    repeat seconds (fun round ->
        let cfg = { Chaos.default with seed = seed + round } in
        List.fold_left
          (fun bad (name, battery) ->
            let r = battery cfg in
            total_domains := !total_domains + r.Chaos.domains;
            if Chaos.ok r then bad
            else begin
              Format.eprintf "round %d %s: lifecycle contract violated@.%a@."
                round name Chaos.pp_report r;
              bad + 1
            end)
          0 Chaos.batteries)
  in
  Printf.printf "churned %d short-lived domains over %d rounds\n%!"
    !total_domains rounds;
  verdict "churn" bad ~passed:"no UAF, no lost orphans, no slot exhaustion"

(* Stall soak (--neutralize): repeat the stall battery until the time
   budget runs out.  Every repetition must report the parked guard's
   stall, neutralize it, force-release the domains killed mid-stall,
   and account for every retired object. *)
let run_neutralize seconds =
  Printf.printf "soak --neutralize: %.0fs budget\n%!" seconds;
  let rounds, bad =
    repeat seconds (fun round ->
        let r = Chaos.run_stall () in
        if Chaos.stall_ok r then 0
        else begin
          Format.eprintf "round %d: stall contract violated@.%a@." round
            Chaos.pp_stall_report r;
          1
        end)
  in
  Printf.printf "ran %d stall rounds\n%!" rounds;
  verdict "stall soak" bad
    ~passed:
      "every stall reported and neutralized, every mid-stall kill \
       force-released, no leaks"

let run seconds workers seed mode pool =
  let alloc = if pool then Memdom.Alloc.Pool else Memdom.Alloc.System in
  match mode with
  | (`Churn | `Neutralize) when pool ->
      `Error (true, "--pool applies only to the structure and --kv soaks")
  | `Churn -> `Ok (run_churn seconds seed)
  | `Neutralize -> `Ok (run_neutralize seconds)
  | `Kv -> `Ok (run_kv seconds workers seed ~mode:alloc ~pool)
  | `Structures -> `Ok (run_structures seconds workers seed ~mode:alloc ~pool)

let seconds_arg =
  Arg.(value & opt float 10.0 & info [ "seconds"; "s" ] ~doc:"Soak duration.")

let workers_arg =
  Arg.(value & opt int 6 & info [ "workers"; "w" ] ~doc:"Worker domains.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let mode_arg =
  Arg.(
    value
    & vflag `Structures
        [
          ( `Churn,
            info [ "churn" ]
              ~doc:
                "Domain-churn chaos mode: waves of short-lived domains dying \
                 at randomized points, instead of long-lived workers." );
          ( `Neutralize,
            info [ "neutralize" ]
              ~doc:
                "Stall mode: repeat the stalled-guard battery (stall \
                 detection, neutralization, mid-stall domain kills) for the \
                 time budget instead of running long-lived workers." );
          ( `Kv,
            info [ "kv" ]
              ~doc:
                "KV mode: zipfian YCSB-B traffic over every split-ordered \
                 map of the catalogue, asserting directory growth, \
                 structural coherence and leak-freedom at teardown." );
        ])

let pool_arg =
  Arg.(
    value & flag
    & info [ "pool" ]
        ~doc:
          "Build every structure (or, with $(b,--kv), every map) over a \
           type-stable Pool allocator instead of System, and print \
           per-structure allocator stats (pool hit rate, remote frees) at \
           teardown.  Not with $(b,--churn) or $(b,--neutralize).")

let cmd =
  Cmd.v
    (Cmd.info "soak" ~doc:"randomized cross-structure soak test")
    Term.(
      ret
        (const run $ seconds_arg $ workers_arg $ seed_arg $ mode_arg
       $ pool_arg))

let () = exit (Cmd.eval' cmd)
