(* Soak test: hammer every structure × scheme combination at once with
   randomized mixed workloads for a configurable duration, then verify
   coherence and leak-freedom of each.  The idea is to find the bugs a
   20-second unit test can't: rare interleavings in helping protocols,
   slow leaks through handover slots, claim chains, stale-helper races.

     dune exec bin/soak.exe -- --seconds 60 --workers 6

   Exits non-zero on the first violated invariant (an exception escaping
   a worker — e.g. Use_after_free — or a leak after teardown). *)

open Cmdliner
open Atomicx

module Int_item = struct
  type t = int
end

(* One soak target: closures over a live structure instance. *)
type target = {
  name : string;
  op : Rng.t -> unit; (* one random operation *)
  teardown : unit -> unit;
  live : unit -> int;
  coherent : unit -> bool; (* cheap structural invariant, quiesced *)
  stats : unit -> string; (* [Alloc.pp_stats] incl. pool hit rate *)
}

let queue_target (type a) ?mode name
    (module Q : Ds.Intf.QUEUE with type item = int and type t = a) =
  let q = Q.create ?mode () in
  {
    name;
    op =
      (fun rng ->
        if Rng.bool rng then Q.enqueue q (Rng.int rng 1_000_000)
        else ignore (Q.dequeue q));
    teardown =
      (fun () ->
        Q.destroy q;
        Q.flush q);
    live = (fun () -> Memdom.Alloc.live (Q.alloc q));
    coherent = (fun () -> true);
    stats = (fun () -> Format.asprintf "%a" Memdom.Alloc.pp_stats (Q.alloc q));
  }

let set_target (type a) ?mode name ~keys
    (module S : Ds.Intf.SET with type t = a) =
  let s = S.create ?mode () in
  {
    name;
    op =
      (fun rng ->
        let k = 1 + Rng.int rng keys in
        match Rng.int rng 3 with
        | 0 -> ignore (S.add s k)
        | 1 -> ignore (S.remove s k)
        | _ -> ignore (S.contains s k));
    teardown =
      (fun () ->
        S.destroy s;
        S.flush s);
    live = (fun () -> Memdom.Alloc.live (S.alloc s));
    coherent =
      (fun () ->
        let l = S.to_list s in
        List.sort_uniq compare l = l);
    stats = (fun () -> Format.asprintf "%a" Memdom.Alloc.pp_stats (S.alloc s));
  }

module Msq_hp = Ds.Ms_queue.Make (Int_item) (Reclaim.Hp.Make)
module Msq_ptp = Ds.Ms_queue.Make (Int_item) (Orc_core.Ptp.Make)
module Msq_orc = Ds.Orc_ms_queue.Make (Int_item)
module Lcrq_orc = Ds.Orc_lcrq.Make (Int_item)
module Kpq = Ds.Orc_kp_queue.Make (Int_item)
module Turn = Ds.Orc_turn_queue.Make (Int_item)
module Ml_hp = Ds.Michael_list.Make (Reclaim.Hp.Make)
module Ml_ptp = Ds.Michael_list.Make (Orc_core.Ptp.Make)
module Ml_orc = Ds.Orc_michael_list.Make ()
module Harris = Ds.Orc_harris_list.Make ()
module Hsl = Ds.Orc_hs_list.Make ()
module Tbkp = Ds.Orc_tbkp_list.Make ()
module Nm_hp = Ds.Nm_tree.Make (Reclaim.Hp.Make)
module Nm_orc = Ds.Orc_nm_tree.Make ()
module Skip_hs = Ds.Orc_hs_skiplist.Make ()
module Skip_crf = Ds.Orc_crf_skiplist.Make ()
module Sp_hp = Ds.Split_map.Make (Reclaim.Hp.Make)
module Sp_ebr = Ds.Split_map.Make (Reclaim.Ebr.Make)
module Sp_orc = Ds.Orc_split_map.Make ()
module Sp_orc_hp = Ds.Orc_split_map.Make_hp ()

let targets ?mode () =
  [
    queue_target ?mode "ms-hp" (module Msq_hp);
    queue_target ?mode "ms-ptp" (module Msq_ptp);
    queue_target ?mode "ms-orc" (module Msq_orc);
    queue_target ?mode "lcrq-orc" (module Lcrq_orc);
    queue_target ?mode "kp-orc" (module Kpq);
    queue_target ?mode "turn-orc" (module Turn);
    set_target ?mode "michael-hp" ~keys:256 (module Ml_hp);
    set_target ?mode "michael-ptp" ~keys:256 (module Ml_ptp);
    set_target ?mode "michael-orc" ~keys:256 (module Ml_orc);
    set_target ?mode "harris-orc" ~keys:256 (module Harris);
    set_target ?mode "hs-orc" ~keys:256 (module Hsl);
    set_target ?mode "tbkp-orc" ~keys:64 (module Tbkp);
    set_target ?mode "nmtree-hp" ~keys:1024 (module Nm_hp);
    set_target ?mode "nmtree-orc" ~keys:1024 (module Nm_orc);
    set_target ?mode "hs-skip" ~keys:1024 (module Skip_hs);
    set_target ?mode "crf-skip" ~keys:1024 (module Skip_crf);
    set_target ?mode "splitmap-hp" ~keys:1024 (module Sp_hp);
    set_target ?mode "splitmap-orc" ~keys:1024 (module Sp_orc);
  ]

(* KV soak (--kv): zipfian YCSB-B traffic over the resizable
   split-ordered maps — one per scheme, all growing from two
   buckets under load — until the time budget runs out.  Unlike the
   uniform main soak, the skewed draw concentrates contention on a few
   hot keys while the long tail keeps forcing directory doublings;
   teardown asserts every map actually grew, holds its structural
   invariant, and leaks nothing. *)
type kv_tgt = {
  k_name : string;
  k_add : int -> bool;
  k_remove : int -> bool;
  k_contains : int -> bool;
  k_coherent : unit -> bool;
  k_grows : unit -> int;
  k_teardown : unit -> unit;
  k_live : unit -> int;
}

let kv_target (type a) name
    (module M : Ds.Orc_split_map.MAP with type t = a) =
  let s = M.create () in
  {
    k_name = name;
    k_add = M.add s;
    k_remove = M.remove s;
    k_contains = M.contains s;
    k_coherent =
      (fun () ->
        M.invariant s
        &&
        let l = M.to_list s in
        List.sort_uniq compare l = l);
    k_grows = (fun () -> M.grows s);
    k_teardown =
      (fun () ->
        M.destroy s;
        M.flush s);
    k_live = (fun () -> Memdom.Alloc.live (M.alloc s));
  }

let run_kv_soak seconds workers seed =
  let keys = 50_000 in
  let ts =
    [
      kv_target "split-hp" (module Sp_hp);
      kv_target "split-ebr" (module Sp_ebr);
      kv_target "split-orc" (module Sp_orc);
      kv_target "split-orc-hp" (module Sp_orc_hp);
    ]
  in
  Printf.printf
    "soak --kv: %d split maps, %d workers, %.0fs, %d-key zipfian keyspace, \
     seed %d\n%!"
    (List.length ts) workers seconds keys seed;
  let arr = Array.of_list ts in
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let ops = Atomic.make 0 in
  let doms =
    List.init workers (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun _ ->
                let kg =
                  Harness.Keygen.create
                    (Harness.Keygen.Zipfian
                       { theta = Harness.Keygen.default_theta })
                    ~n:keys
                    ~seed:(seed lxor ((i + 1) * 65599))
                in
                let rng = Rng.create (seed + ((i + 1) * 7919)) in
                try
                  while not (Atomic.get stop) do
                    let t = arr.(Rng.int rng (Array.length arr)) in
                    let k = 1 + Harness.Keygen.next kg in
                    (match Harness.Keygen.next_op kg Harness.Keygen.mix_b with
                    | Harness.Keygen.Read -> ignore (t.k_contains k)
                    | Harness.Keygen.Update ->
                        if Rng.bool rng then ignore (t.k_add k)
                        else ignore (t.k_remove k));
                    ignore (Atomic.fetch_and_add ops 1)
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
  Printf.printf "executed %d operations\n%!" (Atomic.get ops);
  let bad = ref (Atomic.get failures) in
  List.iter
    (fun t ->
      let grows = t.k_grows () in
      if grows < 3 then begin
        incr bad;
        Printf.eprintf "%s: only %d directory doublings under load\n%!"
          t.k_name grows
      end;
      if not (t.k_coherent ()) then begin
        incr bad;
        Printf.eprintf "%s: structural invariant violated\n%!" t.k_name
      end;
      t.k_teardown ();
      let live = t.k_live () in
      if live <> 0 then begin
        incr bad;
        Printf.eprintf "%s: %d objects leaked\n%!" t.k_name live
      end)
    ts;
  if !bad = 0 then begin
    Printf.printf
      "kv soak passed: every map grew, stayed coherent, and leaked nothing\n";
    0
  end
  else begin
    Printf.eprintf "kv soak FAILED: %d violations\n" !bad;
    1
  end

(* Domain-churn chaos mode (--churn): instead of long-lived workers,
   spawn waves of short-lived domains through the Chaos batteries until
   the time budget runs out, killing them at randomized points.  Every
   battery must hold the lifecycle contract on every repetition. *)
let run_churn seconds seed =
  Printf.printf "soak --churn: %.0fs budget, seed %d, %d batteries\n%!"
    seconds seed
    (List.length Chaos.batteries);
  let t0 = Unix.gettimeofday () in
  let bad = ref 0 in
  let round = ref 0 in
  let total_domains = ref 0 in
  while
    Unix.gettimeofday () -. t0 < seconds && (!bad = 0 || !round = 0)
  do
    incr round;
    let cfg = { Chaos.default with seed = seed + !round } in
    List.iter
      (fun (name, battery) ->
        let r = battery cfg in
        total_domains := !total_domains + r.Chaos.domains;
        if not (Chaos.ok r) then begin
          incr bad;
          Format.eprintf "round %d %s: lifecycle contract violated@.%a@."
            !round name Chaos.pp_report r
        end)
      Chaos.batteries
  done;
  Printf.printf "churned %d short-lived domains over %d rounds\n%!"
    !total_domains !round;
  if !bad = 0 then begin
    Printf.printf
      "churn passed: no UAF, no lost orphans, no slot exhaustion\n";
    0
  end
  else begin
    Printf.eprintf "churn FAILED: %d battery violations\n" !bad;
    1
  end

(* Stall soak (--neutralize): repeat the stall battery until the time
   budget runs out.  Every repetition must report the parked guard's
   stall, neutralize it, force-release the domains killed mid-stall,
   and account for every retired object. *)
let run_neutralize seconds =
  Printf.printf "soak --neutralize: %.0fs budget\n%!" seconds;
  let t0 = Unix.gettimeofday () in
  let bad = ref 0 in
  let round = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds && (!bad = 0 || !round = 0) do
    incr round;
    let r = Chaos.run_stall () in
    if not (Chaos.stall_ok r) then begin
      incr bad;
      Format.eprintf "round %d: stall contract violated@.%a@." !round
        Chaos.pp_stall_report r
    end
  done;
  Printf.printf "ran %d stall rounds\n%!" !round;
  if !bad = 0 then begin
    Printf.printf
      "stall soak passed: every stall reported and neutralized, every \
       mid-stall kill force-released, no leaks\n";
    0
  end
  else begin
    Printf.eprintf "stall soak FAILED: %d battery violations\n" !bad;
    1
  end

let run seconds workers seed churn neutralize kv pool =
  if churn then run_churn seconds seed
  else if neutralize then run_neutralize seconds
  else if kv then run_kv_soak seconds workers seed
  else
  let mode = if pool then Some Memdom.Alloc.Pool else None in
  let ts = targets ?mode () in
  Printf.printf "soak: %d structures, %d workers, %.0fs, seed %d%s\n%!"
    (List.length ts) workers seconds seed
    (if pool then ", pool allocators" else "");
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let ops = Atomic.make 0 in
  let arr = Array.of_list ts in
  let doms =
    List.init workers (fun i ->
        Domain.spawn (fun () ->
            Registry.with_tid (fun _ ->
                let rng = Rng.create (seed + ((i + 1) * 65599)) in
                try
                  while not (Atomic.get stop) do
                    let t = arr.(Rng.int rng (Array.length arr)) in
                    t.op rng;
                    ignore (Atomic.fetch_and_add ops 1)
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
  Printf.printf "executed %d operations\n%!" (Atomic.get ops);
  let bad = ref (Atomic.get failures) in
  List.iter
    (fun t ->
      if not (t.coherent ()) then begin
        incr bad;
        Printf.eprintf "%s: structural invariant violated\n%!" t.name
      end;
      t.teardown ();
      let live = t.live () in
      if live <> 0 then begin
        incr bad;
        Printf.eprintf "%s: %d objects leaked\n%!" t.name live
      end;
      if pool then Printf.printf "  %s\n%!" (t.stats ()))
    ts;
  if !bad = 0 then begin
    Printf.printf "soak passed: no UAF, no incoherence, no leaks\n";
    0
  end
  else begin
    Printf.eprintf "soak FAILED: %d violations\n" !bad;
    1
  end

let seconds_arg =
  Arg.(value & opt float 10.0 & info [ "seconds"; "s" ] ~doc:"Soak duration.")

let workers_arg =
  Arg.(value & opt int 6 & info [ "workers"; "w" ] ~doc:"Worker domains.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let churn_arg =
  Arg.(
    value & flag
    & info [ "churn" ]
        ~doc:
          "Domain-churn chaos mode: waves of short-lived domains dying at \
           randomized points, instead of long-lived workers.")

let neutralize_arg =
  Arg.(
    value & flag
    & info [ "neutralize" ]
        ~doc:
          "Stall mode: repeat the stalled-guard battery (stall detection, \
           neutralization, mid-stall domain kills) for the time budget \
           instead of running long-lived workers.")

let kv_arg =
  Arg.(
    value & flag
    & info [ "kv" ]
        ~doc:
          "KV mode: zipfian YCSB-B traffic over the resizable \
           split-ordered maps (one per scheme), asserting directory \
           growth, structural coherence and leak-freedom at teardown.")

let pool_arg =
  Arg.(
    value & flag
    & info [ "pool" ]
        ~doc:
          "Build every structure over a type-stable Pool allocator instead \
           of System, and print per-target allocator stats (pool hit rate, \
           remote frees) at teardown.")

let cmd =
  Cmd.v
    (Cmd.info "soak" ~doc:"randomized cross-structure soak test")
    Term.(
      const run $ seconds_arg $ workers_arg $ seed_arg $ churn_arg
      $ neutralize_arg $ kv_arg $ pool_arg)

let () = exit (Cmd.eval' cmd)
