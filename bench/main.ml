(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) with container-friendly defaults, plus a Bechamel
   micro-benchmark suite for single-threaded per-operation costs, and
   checks each section's claims on its own results.

   Output sections map 1:1 onto the paper (see DESIGN.md §3):
     Fig 1/2  - queues, enq/deq pairs (raw and normalized)
     Fig 3/4  - Michael-Harris list across schemes, three mixes
     Fig 5/6  - the four OrcGC-only/annotated lists
     Fig 7/8  - NM-tree and skip lists, large key range
     Table 1  - measured peak unreclaimed objects vs theoretical bounds
     Mem      - HS-skip vs CRF-skip footprint
     Ablation - PTP publish instruction, protection backend, handover
                drain on clear
     Tracing  - per-scheme retire→free latency + null-sink overhead

   Flags (section flags compose; given any, only those sections run):
     --json         also write every result to BENCH_orc.json (merged)
     --trace=FILE   dump a Perfetto-loadable Chrome trace of the traced
                    queue runs; a trace that fails validation fails the run
     --smoke        seconds-not-minutes sizes; alone, only the traced runs,
                    the allocator and scan sections and the micros
     --churn        reclamation latency while domains die (chaos batteries)
     --alloc        System vs Pool allocator at equal op count
     --scan         snapshot scans and publication elision, per scheme
     --pack         packed headers + word links: words/read, retire ns
     --metrics      sampler overhead, allocation audit, stall battery
     --background   retire tail latency inline vs background reclaimer,
                    neutralization and reclaimer-kill batteries
     --adaptive     adaptive controller vs static EBR and static HP

   Each section checks its claims (guards) on its own typed rows; after
   the JSON is written, each violated guard prints `FAIL <section>:
   <claim>` and the run exits 1.  Any other argument: usage, exit 2.

   On this single-machine setup the Intel/AMD pair of each figure
   collapses to one series; EXPERIMENTS.md records the mapping. *)

open Bechamel
open Toolkit

let args = List.tl (Array.to_list Sys.argv)
let smoke = List.mem "--smoke" args

let trace_file a =
  let prefix = "--trace=" in
  let n = String.length prefix in
  if String.starts_with ~prefix a && String.length a > n then
    Some (String.sub a n (String.length a - n))
  else None

let trace_out = List.find_map trace_file args

let json_out = if List.mem "--json" args then Some "BENCH_orc.json" else None

(* A guard: a section's claim, worded with the measured values, and
   whether its rows meet it. *)
type guard = string * bool

let guard ok fmt = Printf.ksprintf (fun claim -> (claim, ok)) fmt

let params =
  if smoke then
    {
      Harness.Experiments.threads = [ 1; 2 ];
      duration = 0.05;
      list_keys = 200;
      big_keys = 1_000;
      csv = None;
    }
  else
    {
      Harness.Experiments.threads = [ 1; 2; 4 ];
      duration = 0.15;
      list_keys = 1_000;
      big_keys = 20_000;
      csv = None;
    }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per structure family, measuring the
   single-threaded per-operation cost that dominates the figures'
   1-thread data points. *)

module Q_orc = Ds.Orc_ms_queue.Make (struct
  type t = int
end)

module Q_ptp = Ds.Ms_queue.Make
    (struct
      type t = int
    end)
    (Orc_core.Ptp.Make)

module L_orc = Ds.Orc_michael_list.Make ()
module L_hp = Ds.Michael_list.Make (Reclaim.Hp.Make)
module T_orc = Ds.Orc_nm_tree.Make ()
module S_crf = Ds.Orc_crf_skiplist.Make ()

let micro_tests () =
  let q_orc = Q_orc.create () in
  let q_ptp = Q_ptp.create () in
  let l_orc = L_orc.create () in
  let l_hp = L_hp.create () in
  let t_orc = T_orc.create () in
  let s_crf = S_crf.create () in
  for k = 1 to 512 do
    ignore (L_orc.add l_orc k);
    ignore (L_hp.add l_hp k);
    ignore (T_orc.add t_orc k);
    ignore (S_crf.add s_crf k)
  done;
  [
    Test.make ~name:"msq-orc enq+deq pair"
      (Staged.stage (fun () ->
           Q_orc.enqueue q_orc 1;
           ignore (Q_orc.dequeue q_orc)));
    Test.make ~name:"msq-ptp enq+deq pair"
      (Staged.stage (fun () ->
           Q_ptp.enqueue q_ptp 1;
           ignore (Q_ptp.dequeue q_ptp)));
    Test.make ~name:"list-orc contains"
      (Staged.stage (fun () -> ignore (L_orc.contains l_orc 256)));
    Test.make ~name:"list-hp contains"
      (Staged.stage (fun () -> ignore (L_hp.contains l_hp 256)));
    Test.make ~name:"nmtree-orc contains"
      (Staged.stage (fun () -> ignore (T_orc.contains t_orc 256)));
    Test.make ~name:"crf-skip contains"
      (Staged.stage (fun () -> ignore (S_crf.contains s_crf 256)));
  ]

let run_micro () =
  Format.printf "@.== Bechamel micro-benchmarks (single-threaded ns/op) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
              Format.printf "  %-28s %10.1f ns/op@." name est;
              rows := (name, est) :: !rows
          | Some [] | None -> Format.printf "  %-28s (no estimate)@." name)
        results)
    (micro_tests ());
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Reclamation tracing: traced queue runs + null-sink overhead.        *)

let hist_report get sink =
  Option.map (fun h -> Obs.Hist.report h) (get sink)

(* Instant lifecycle events per name.  Recycle replaces Alloc on the pool
   hit path, so recycle / (alloc + recycle) is the pool hit rate. *)
let print_trace_tally doc =
  let counts = Hashtbl.create 16 in
  (match Obs.Json.member "traceEvents" doc with
  | Some (Obs.Json.List evs) ->
      List.iter
        (fun ev ->
          match (Obs.Json.member "ph" ev, Obs.Json.member "name" ev) with
          | Some (Obs.Json.Str "i"), Some (Obs.Json.Str name) ->
              Hashtbl.replace counts name
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts name))
          | _ -> ())
        evs
  | _ -> ());
  let count name = Option.value ~default:0 (Hashtbl.find_opt counts name) in
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) counts []
  |> List.sort compare
  |> List.iter (fun (name, n) -> Format.printf "    %-10s %8d@." name n);
  let alloc = count "alloc" and recycle = count "recycle" in
  if recycle + count "refill" > 0 then
    Format.printf "  pool hit rate: %.1f%% (%d recycled of %d hand-outs)@."
      (100. *. float_of_int recycle /. float_of_int (alloc + recycle))
      recycle (alloc + recycle);
  Format.printf "  scan: %d snapshot builds, %d elided publishes@."
    (count "snapshot") (count "elide")

let run_tracing () =
  let open Harness in
  Format.printf "@.== Reclamation tracing (MS queue, enq/deq pairs) ==@.";
  let traced = Experiments.traced_queue_runs params in
  Format.printf "  %-10s %10s %14s %14s %12s@." "scheme" "Mops/s"
    "retire-free-p50" "retire-free-p99" "samples";
  List.iter
    (fun r ->
      match hist_report Obs.Sink.retire_free_hist r.Experiments.t_sink with
      | Some rep ->
          Format.printf "  %-10s %10.3f %12dns %12dns %12d@."
            r.Experiments.t_name r.t_mops rep.Obs.Hist.p50 rep.Obs.Hist.p99
            rep.Obs.Hist.count
      | None ->
          Format.printf "  %-10s %10.3f %14s %14s %12s@." r.Experiments.t_name
            r.t_mops "-" "-" "-")
    traced;
  let null_mops, active_mops = Experiments.tracing_overhead params in
  let overhead_pct =
    if null_mops > 0. then 100. *. (1. -. (active_mops /. null_mops)) else 0.
  in
  Format.printf
    "  null-sink %8.3f Mops/s   active-sink %8.3f Mops/s   capture cost \
     %.1f%%@."
    null_mops active_mops overhead_pct;
  let validation =
    Option.map
      (fun path ->
        let doc =
          Obs.Trace.combined
            (List.map
               (fun r -> (r.Experiments.t_name, r.Experiments.t_sink))
               traced)
        in
        Obs.Json.to_file path doc;
        Format.printf "  wrote %s (load it at https://ui.perfetto.dev)@." path;
        print_trace_tally doc;
        (path, Obs.Trace.validate doc))
      trace_out
  in
  (traced, null_mops, active_mops, overhead_pct, validation)

let tracing_guards (_, _, _, _, validation) =
  match validation with
  | None -> []
  | Some (path, Ok ()) -> [ guard true "%s is a valid trace" path ]
  | Some (path, Error e) -> [ guard false "%s is a valid trace (%s)" path e ]

let tracing_json (traced, null_mops, active_mops, overhead_pct, _) =
  let open Harness in
  let scheme_json r =
    let hist name get =
      match hist_report get r.Experiments.t_sink with
      | Some rep -> [ (name, Obs.Hist.report_to_json rep) ]
      | None -> []
    in
    Json.Obj
      ([
         ("scheme", Json.Str r.Experiments.t_name);
         ("mops", Json.Float r.t_mops);
       ]
      @ hist "retire_free_ns" Obs.Sink.retire_free_hist
      @ hist "guard_ns" Obs.Sink.guard_hist
      @ hist "scan_ns" Obs.Sink.scan_hist)
  in
  Json.Obj
    [
      ( "overhead",
        Json.Obj
          [
            ("null_sink_mops", Json.Float null_mops);
            ("active_sink_mops", Json.Float active_mops);
            ("capture_cost_pct", Json.Float overhead_pct);
          ] );
      ("schemes", Json.List (List.map scheme_json traced));
    ]

(* ------------------------------------------------------------------ *)
(* Domain churn: reclamation latency while short-lived domains die at
   random points.  The interesting number is the retire->free p99 —
   how long an object can linger when its retirer dies and a survivor
   has to adopt it — plus the orphan-publish -> adopt latency. *)

let run_churn () =
  Format.printf
    "@.== Domain churn: reclamation under thread death (%d domains/battery) \
     ==@."
    (Chaos.default.waves * Chaos.default.domains_per_wave);
  Format.printf "  %-8s %14s %14s %12s %10s %6s@." "scheme" "retire-free-p50"
    "retire-free-p99" "adopt-p99" "domains" "ok";
  List.map
    (fun (name, battery) ->
      let sink = Obs.Sink.make () in
      let r = battery { Chaos.default with sink } in
      let rf =
        match Obs.Sink.retire_free_hist sink with
        | Some h when Obs.Hist.count h > 0 -> Some (Obs.Hist.report h)
        | _ -> None
      in
      let ad =
        match Obs.Sink.adopt_hist sink with
        | Some h when Obs.Hist.count h > 0 -> Some (Obs.Hist.report h)
        | _ -> None
      in
      let p get = function
        | Some (rep : Obs.Hist.report) -> Printf.sprintf "%dns" (get rep)
        | None -> "-"
      in
      Format.printf "  %-8s %14s %14s %12s %10d %6b@." name
        (p (fun rep -> rep.Obs.Hist.p50) rf)
        (p (fun rep -> rep.Obs.Hist.p99) rf)
        (p (fun rep -> rep.Obs.Hist.p99) ad)
        r.Chaos.domains (Chaos.ok r);
      (name, r, rf, ad))
    Chaos.batteries

let churn_json results =
  let open Harness in
  Json.Obj
    (List.map
       (fun (name, (r : Chaos.report), rf, ad) ->
         ( name,
           Json.Obj
             ([
                ("domains", Json.Int r.Chaos.domains);
                ("killed", Json.Int r.Chaos.killed);
                ("abandoned", Json.Int r.Chaos.abandoned);
                ("peak_unreclaimed", Json.Int r.Chaos.peak_unreclaimed);
                ("ok", Json.Bool (Chaos.ok r));
              ]
             @ (match rf with
               | Some rep -> [ ("retire_free_ns", Obs.Hist.report_to_json rep) ]
               | None -> [])
             @
             match ad with
             | Some rep -> [ ("adopt_ns", Obs.Hist.report_to_json rep) ]
             | None -> []) ))
       results)

let churn_guards results =
  List.map
    (fun (name, r, _, _) ->
      guard (Chaos.ok r)
        "%s battery ok (leaked %d, unreclaimed %d, orphaned %d, %d of %d \
         abandoned force-released, errors [%s])"
        name r.Chaos.leaked r.Chaos.unreclaimed_after r.Chaos.orphaned_after
        r.Chaos.force_released r.Chaos.abandoned
        (String.concat "; " r.Chaos.errors))
    results

(* ------------------------------------------------------------------ *)
(* Allocator modes: System vs the type-stable Pool at equal op count.
   Single-domain runs so the per-domain Gc.quick_stat deltas (minor
   words / minor collections) are well-defined; the claim to observe is
   a ≥90% pool hit rate at steady state and strictly fewer minor
   collections than System.  The pool saves about 5% of the minor words,
   so the op count stays at 200k under --smoke too: at 50k ops both
   modes take about 10 minor collections and the comparison cannot
   resolve the difference. *)

let run_alloc () =
  let ops = 200_000 in
  Format.printf
    "@.== Allocator: System vs type-stable Pool (%d ops, 1 domain) ==@." ops;
  let rows = Harness.Experiments.alloc_modes ~ops params in
  Format.printf "  %-10s %-8s %8s %9s %12s %14s %10s@." "workload" "mode"
    "Mops/s" "hit-rate" "remote-free" "minor-words" "minor-gcs";
  List.iter
    (fun r ->
      let open Harness.Experiments in
      Format.printf "  %-10s %-8s %8.3f %8.1f%% %12d %14.0f %10d@." r.a_workload
        r.a_mode r.a_mops
        (100. *. r.a_hit_rate)
        r.a_remote_frees r.a_minor_words r.a_minor_collections)
    rows;
  rows

let alloc_json rows =
  let open Harness in
  Json.List
    (List.map
       (fun r ->
         let open Experiments in
         Json.Obj
           [
             ("workload", Json.Str r.a_workload);
             ("mode", Json.Str r.a_mode);
             ("ops", Json.Int r.a_ops);
             ("mops", Json.Float r.a_mops);
             ("hit_rate", Json.Float r.a_hit_rate);
             ("pool_hits", Json.Int r.a_hits);
             ("pool_misses", Json.Int r.a_misses);
             ("remote_frees", Json.Int r.a_remote_frees);
             ("refills", Json.Int r.a_refills);
             ("minor_words", Json.Float r.a_minor_words);
             ("minor_collections", Json.Int r.a_minor_collections);
           ])
       rows)

(* The claim in the section header, for every workload: the pool hits at
   least 90% and takes fewer minor collections than System. *)
let rec alloc_guards = function
  | ({ Harness.Experiments.a_mode = "system"; _ } as system)
    :: ({ a_mode = "pool"; _ } as pool)
    :: rest ->
      guard (pool.a_hit_rate >= 0.9) "%s: pool hit rate %.1f%% >= 90%%"
        pool.a_workload (100. *. pool.a_hit_rate)
      :: guard
           (pool.a_minor_collections < system.a_minor_collections)
           "%s: pool minor collections %d < system %d" pool.a_workload
           pool.a_minor_collections system.a_minor_collections
      :: alloc_guards rest
  | [] -> []
  | _ -> [ guard false "rows come in system, pool pairs per workload" ]

(* ------------------------------------------------------------------ *)
(* Scan cost: per-scheme snapshot-scan cost and read-side publish cost
   (with publication elision).  Each run drives a scheme directly: a
   few staged rows carry protections so scans have real hazard
   populations to walk, then unprotected nodes are retired until the
   scheme has performed a fixed number of batching scans.  The headline
   number is scan_slots per scan — at most one visit per published
   slot, rows × slots-per-row. *)

type snode = { s_hdr : Memdom.Hdr.t }

module SN = struct
  type t = snode

  let hdr n = n.s_hdr
end

module Scan_hp = Reclaim.Hp.Make (SN)
module Scan_ptb = Reclaim.Ptb.Make (SN)
module Scan_he = Reclaim.He.Make (SN)
module Scan_ibr = Reclaim.Ibr.Make (SN)

type scan_row = {
  sc_scheme : string;
  sc_rows : int; (* registered rows every scan may walk *)
  sc_slots_per_row : int;
  sc_retires : int;
  sc_scans : int;
  sc_scan_slots : int;
  sc_slots_per_retire : float;
  sc_snapshot_builds : int;
  sc_snapshot_hits : int;
  sc_elided : int;
  sc_retire_ns : float;
  sc_read_ns : float;
  sc_rf_p50 : int; (* retire->free latency, -1 when no samples *)
  sc_rf_p99 : int;
}

let scan_hps = 4

let scan_run (module M : Reclaim.Scheme_intf.S with type node = snode) name
    ~slots_per_row =
  (* stage a fixed watermark so every scan walks the same row count
     regardless of which sections ran before this one *)
  Atomicx.Registry.reserve 8;
  let sink = Obs.Sink.make () in
  (* the sink hangs off the allocator so frees land in the
     retire->free histogram *)
  let alloc = Memdom.Alloc.create ~sink ("scan-" ^ name) in
  let s = M.create ~max_hps:scan_hps alloc in
  (* one protected retiree so snapshot membership gets real hits; for
     era/interval schemes the protection is the tid-1 reservation
     pinned by [begin_op], for pointer schemes the raw publish *)
  M.begin_op s ~tid:1;
  let pinned = { s_hdr = Memdom.Alloc.hdr alloc () } in
  M.protect_raw s ~tid:1 ~idx:0 (Some pinned);
  M.retire s ~tid:0 pinned;
  let open Reclaim.Scheme_intf in
  let target_scans = (M.stats s).scans + 6 in
  let cap = 200_000 in
  let retires = ref 0 in
  let t0 = Obs.Sink.now_ns () in
  while
    !retires < cap
    && ((!retires land 63) <> 0 || (M.stats s).scans < target_scans)
  do
    M.retire s ~tid:0 { s_hdr = Memdom.Alloc.hdr alloc () };
    incr retires
  done;
  let retire_ns =
    float_of_int (Obs.Sink.now_ns () - t0) /. float_of_int (max 1 !retires)
  in
  let st = M.stats s in
  (* read-side micro: repeated protected loads of an unchanging link —
     the elision fast path.  Run against a null-sink instance so the
     number is the production fast path, not the cost of tracing every
     elide into an active ring. *)
  let s2 = M.create ~max_hps:scan_hps ~sink:Obs.Sink.null alloc in
  M.begin_op s2 ~tid:0;
  let n0 = { s_hdr = Memdom.Alloc.hdr alloc () } in
  let arena = Memdom.Handle.arena ~hdr:(fun n -> n.s_hdr) () in
  let link = Atomicx.Link.make_in arena (Atomicx.Link.Ptr n0) in
  let reads = 50_000 in
  let t1 = Obs.Sink.now_ns () in
  for _ = 1 to reads do
    ignore (M.get_protected_v s2 ~tid:0 ~idx:0 link)
  done;
  let read_ns =
    float_of_int (Obs.Sink.now_ns () - t1) /. float_of_int reads
  in
  let elided = st.elided + (M.stats s2).elided in
  M.end_op s2 ~tid:0;
  M.end_op s ~tid:1;
  M.flush s;
  let rf_p50, rf_p99 =
    match Obs.Sink.retire_free_hist sink with
    | Some h when Obs.Hist.count h > 0 ->
        let rep = Obs.Hist.report h in
        (rep.Obs.Hist.p50, rep.Obs.Hist.p99)
    | _ -> (-1, -1)
  in
  {
    sc_scheme = name;
    sc_rows = Atomicx.Registry.registered ();
    sc_slots_per_row = slots_per_row;
    sc_retires = !retires;
    sc_scans = st.scans;
    sc_scan_slots = st.scan_slots;
    sc_slots_per_retire =
      float_of_int st.scan_slots /. float_of_int (max 1 !retires);
    sc_snapshot_builds = st.snapshot_builds;
    sc_snapshot_hits = st.snapshot_hits;
    sc_elided = elided;
    sc_retire_ns = retire_ns;
    sc_read_ns = read_ns;
    sc_rf_p50 = rf_p50;
    sc_rf_p99 = rf_p99;
  }

let run_scan () =
  Format.printf "@.== Scan cost: snapshot scans + publication elision ==@.";
  Format.printf "  %-6s %8s %6s %11s %11s %6s %8s %10s %10s %12s@." "scheme"
    "retires" "scans" "scan-slots" "slots/ret" "snaps" "elided" "retire-ns"
    "read-ns" "rf-p99";
  (* slots per row: H hazard/era slots for the pointer and era schemes,
     one reservation interval for IBR *)
  let schemes =
    [
      ( "hp",
        (module Scan_hp : Reclaim.Scheme_intf.S with type node = snode),
        scan_hps );
      ("ptb", (module Scan_ptb), scan_hps);
      ("he", (module Scan_he), scan_hps);
      ("ibr", (module Scan_ibr), 1);
    ]
  in
  List.map
    (fun (name, m, slots_per_row) ->
      let r = scan_run m name ~slots_per_row in
      Format.printf "  %-6s %8d %6d %11d %11.2f %6d %8d %10.1f %10.1f %10dns@."
        r.sc_scheme r.sc_retires r.sc_scans r.sc_scan_slots
        r.sc_slots_per_retire r.sc_snapshot_builds r.sc_elided r.sc_retire_ns
        r.sc_read_ns r.sc_rf_p99;
      r)
    schemes

let scan_json rows =
  let open Harness in
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("scheme", Json.Str r.sc_scheme);
             ("rows", Json.Int r.sc_rows);
             ("slots_per_row", Json.Int r.sc_slots_per_row);
             ("retires", Json.Int r.sc_retires);
             ("scans", Json.Int r.sc_scans);
             ("scan_slots", Json.Int r.sc_scan_slots);
             ("slots_per_retire", Json.Float r.sc_slots_per_retire);
             ("snapshot_builds", Json.Int r.sc_snapshot_builds);
             ("snapshot_hits", Json.Int r.sc_snapshot_hits);
             ("elided", Json.Int r.sc_elided);
             ("retire_ns", Json.Float r.sc_retire_ns);
             ("read_ns", Json.Float r.sc_read_ns);
             ( "retire_free_p50_ns",
               if r.sc_rf_p50 < 0 then Json.Null else Json.Int r.sc_rf_p50 );
             ( "retire_free_p99_ns",
               if r.sc_rf_p99 < 0 then Json.Null else Json.Int r.sc_rf_p99 );
           ])
       rows)

(* A snapshot per batching scan, at most one visit per published slot
   per scan, and read-side elision firing where the scheme implements it
   (PTB's get_protected_v keeps the unconditional publish). *)
let scan_guards rows =
  guard (rows <> []) "%d schemes measured > 0" (List.length rows)
  :: List.concat_map
    (fun r ->
      let ceiling = r.sc_scans * r.sc_slots_per_row * r.sc_rows in
      [
        guard
          (r.sc_snapshot_builds > 0 && r.sc_snapshot_builds = r.sc_scans)
          "%s: snapshot_builds %d = scans %d > 0" r.sc_scheme
          r.sc_snapshot_builds r.sc_scans;
        guard (r.sc_scan_slots <= ceiling)
          "%s: scan_slots %d <= one visit per slot per scan (%d)" r.sc_scheme
          r.sc_scan_slots ceiling;
      ]
      @
      if List.mem r.sc_scheme [ "hp"; "he"; "ibr" ] then
        [ guard (r.sc_elided > 0) "%s: elided %d > 0" r.sc_scheme r.sc_elided ]
      else [])
    rows

(* ------------------------------------------------------------------ *)
(* Word packing: packed headers + word links.  The headline numbers are
   minor-heap words allocated per protected read (exactly 0: views are
   immediates and every pointer-publishing scheme — hp, ptb, ptp and
   both orc cores — publishes the target's uid, one unboxed word), the
   per-retire latency of the fetch-and-add
   header transitions, and the CAS-retry (restart) count of a contended
   Michael list on word-CAS links. *)

type pnode = { p_hdr : Memdom.Hdr.t; p_next : pnode Atomicx.Link.t }

module PN = struct
  type t = pnode

  let hdr n = n.p_hdr
end

module Pack_hp = Reclaim.Hp.Make (PN)
module Pack_ptb = Reclaim.Ptb.Make (PN)
module Pack_ptp = Orc_core.Ptp.Make (PN)

module PON = struct
  include PN

  let iter_links n f = f n.p_next
end

module Pack_orc = Orc_core.Orc.Make (PON)
module Pack_orc_hp = Orc_core.Orc.Make_hp (PON)

module type PACK_SET = sig
  include Ds.Intf.SET

  val restarts : t -> int
end

module Pack_list_hp = Ds.Michael_list.Make (Reclaim.Hp.Make)

type pack_row = {
  pk_scheme : string;
  pk_read_ns : float; (* per protected link hop *)
  pk_read_words : float; (* minor words per protected link hop *)
  pk_retire_ns : float;
  pk_cas_retries : int; (* michael-list restarts, -1 when not measured *)
}

(* Minor-words + wall-clock delta around [f].  [Gc.minor_words] itself
   allocates the boxed float it returns (after reading the counter), so
   one boxed-float overhead is calibrated out. *)
let measure_words_ns f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  let t0 = Obs.Sink.now_ns () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let t1 = Obs.Sink.now_ns () in
  (Float.max 0. (w1 -. w0 -. overhead), float_of_int (t1 - t0))

let pack_chain = 64
let pack_reads = if smoke then 2_000 else 10_000
let pack_retires = if smoke then 5_000 else 20_000

(* A manual scheme's protected walk down a [pack_chain] chain, then
   [pack_retires] retires of private nodes. *)
let pack_manual_run (module S : Reclaim.Scheme_intf.S with type node = pnode) =
  let open Atomicx in
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null ("pack-" ^ S.name) in
  let s = S.create ~max_hps:4 ~sink:Obs.Sink.null alloc in
  let arena = Memdom.Handle.arena ~hdr:(fun n -> n.p_hdr) () in
  let tail =
    { p_hdr = Memdom.Alloc.hdr alloc (); p_next = Link.make_in arena Link.Null }
  in
  let head = ref tail in
  for _ = 2 to pack_chain do
    head :=
      {
        p_hdr = Memdom.Alloc.hdr alloc ();
        p_next = Link.make_in arena (Link.Ptr !head);
      }
  done;
  let root = Link.make_in arena (Link.Ptr !head) in
  S.begin_op s ~tid:0;
  let rec walk link idx =
    let v = S.get_protected_v s ~tid:0 ~idx link in
    if Link.v_has_target v then
      walk (Link.v_target_exn link v).p_next (1 - idx)
  in
  let words, ns =
    measure_words_ns (fun () ->
        for _ = 1 to pack_reads do
          walk root 0
        done)
  in
  let hops = float_of_int (pack_reads * pack_chain) in
  (* retire side: park-and-scan cycles through the packed transitions *)
  let t0 = Obs.Sink.now_ns () in
  for _ = 1 to pack_retires do
    S.retire s ~tid:0
      { p_hdr = Memdom.Alloc.hdr alloc (); p_next = Link.make_in arena Link.Null }
  done;
  let retire_ns =
    float_of_int (Obs.Sink.now_ns () - t0) /. float_of_int pack_retires
  in
  S.end_op s ~tid:0;
  S.flush s;
  {
    pk_scheme = S.name;
    pk_read_ns = ns /. hops;
    pk_read_words = words /. hops;
    pk_retire_ns = retire_ns;
    pk_cas_retries = -1;
  }

let pack_orc_run (module O : Orc_core.Orc.S with type node = pnode) name =
  let open Atomicx in
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null ("pack-" ^ name) in
  let o = O.create ~sink:Obs.Sink.null alloc in
  let row =
    O.with_guard o (fun g ->
        let root = O.new_link_v g Link.v_null in
        let np = O.ptr g in
        for _ = 1 to pack_chain do
          let n =
            O.alloc_node_into g np (fun hdr ->
                { p_hdr = hdr; p_next = O.new_link_v g Link.v_null })
          in
          (* prepend: n.next takes the old chain head, root takes n *)
          O.store_v g n.p_next (Link.view root);
          O.store_v g root (O.v_ptr o n)
        done;
        let prev = O.ptr g and curr = O.ptr g and next = O.ptr g in
        let words, ns =
          measure_words_ns (fun () ->
              for _ = 1 to pack_reads / 4 do
                O.load g root curr;
                while Link.v_has_target (O.Ptr.view curr) do
                  let c = O.Ptr.node_exn curr in
                  O.load g c.p_next next;
                  O.assign g prev curr;
                  O.assign g curr next
                done
              done)
        in
        let hops = float_of_int (pack_reads / 4 * pack_chain) in
        (* retire side: link in, unlink — the count hits zero under a
           live hazard, driving the full retire/handover machinery *)
        let sl = O.new_link_v g Link.v_null in
        let t0 = Obs.Sink.now_ns () in
        for _ = 1 to pack_retires / 4 do
          let n =
            O.alloc_node_into g np (fun hdr ->
                { p_hdr = hdr; p_next = O.new_link_v g Link.v_null })
          in
          O.store_v g sl (O.v_ptr o n);
          O.store_v g sl Link.v_null
        done;
        let retire_ns =
          float_of_int (Obs.Sink.now_ns () - t0)
          /. float_of_int (pack_retires / 4)
        in
        {
          pk_scheme = name;
          pk_read_ns = ns /. hops;
          pk_read_words = words /. hops;
          pk_retire_ns = retire_ns;
          pk_cas_retries = -1;
        })
  in
  O.flush o;
  row

(* Contended Michael-list restarts: two domains hammer the same small
   key range; restarts count window-validation failures and lost CAS
   races. *)
let pack_list_retries (module L : PACK_SET) =
  let l = L.create () in
  for k = 1 to 128 do
    ignore (L.add l k)
  done;
  let ops = if smoke then 5_000 else 20_000 in
  let worker seed () =
    let x = ref seed in
    for _ = 1 to ops do
      (* xorshift; keys land in [1, 128] *)
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let key = 1 + (!x land 127) in
      match !x land 3 with
      | 0 -> ignore (L.add l key)
      | 1 -> ignore (L.remove l key)
      | _ -> ignore (L.contains l key)
    done
  in
  let ds = List.map (fun seed -> Domain.spawn (worker seed)) [ 0x9E37; 0x79B9 ] in
  List.iter Domain.join ds;
  let r = L.restarts l in
  L.destroy l;
  L.flush l;
  r

let run_pack () =
  Format.printf "@.== Word packing: packed headers + word links ==@.";
  Format.printf "  %-8s %12s %14s %12s %12s@." "scheme" "read-ns" "words/read"
    "retire-ns" "cas-retries";
  let module L_orc_pack = Ds.Orc_michael_list.Make () in
  let hp = pack_manual_run (module Pack_hp) in
  let ptb = pack_manual_run (module Pack_ptb) in
  let ptp = pack_manual_run (module Pack_ptp) in
  let orc = pack_orc_run (module Pack_orc) "orc" in
  let orc_hp = pack_orc_run (module Pack_orc_hp) "orc-hp" in
  let hp_retries = pack_list_retries (module Pack_list_hp) in
  let orc_retries = pack_list_retries (module L_orc_pack) in
  let rows =
    [
      { hp with pk_cas_retries = hp_retries };
      ptb;
      ptp;
      { orc with pk_cas_retries = orc_retries };
      orc_hp;
    ]
  in
  List.iter
    (fun r ->
      Format.printf "  %-8s %12.1f %14.3f %12.1f %12s@." r.pk_scheme
        r.pk_read_ns r.pk_read_words r.pk_retire_ns
        (if r.pk_cas_retries < 0 then "-" else string_of_int r.pk_cas_retries))
    rows;
  rows

let pack_json rows =
  let open Harness in
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("scheme", Json.Str r.pk_scheme);
             ("read_ns", Json.Float r.pk_read_ns);
             ("read_words_per_op", Json.Float r.pk_read_words);
             ("retire_ns", Json.Float r.pk_retire_ns);
             ( "cas_retries",
               if r.pk_cas_retries < 0 then Json.Null
               else Json.Int r.pk_cas_retries );
           ])
       rows)

(* The protected-read path allocates nothing: the ceiling is a rounding
   allowance for fixed costs amortized over the measured hops. *)
let pack_guards rows =
  guard (rows <> []) "%d schemes measured > 0" (List.length rows)
  :: List.map
    (fun r ->
      guard (r.pk_read_words <= 0.05) "%s: %.3f words/read <= 0.05"
        r.pk_scheme r.pk_read_words)
    rows

(* ------------------------------------------------------------------ *)
(* Live metrics plane: sampler-overhead A/B on a guard-per-op list
   traversal, the raw watchdog-stamp cost on a bare guard bracket, a
   hot-path allocation audit (gauge set, counter bump, guard bracket —
   all must stay at exactly zero minor words), the chaos stall battery,
   and a snapshot of the sampled series. *)

type metrics_row = {
  mt_off_ns : float; (* list contains ns/op, plane off (inert sleeper) *)
  mt_on_ns : float; (* same loop, sampler running + watchdog stamping *)
  mt_overhead_pct : float;
  mt_bracket_idle_ns : float; (* bare begin/end bracket, plane off, 1 domain *)
  mt_bracket_off_ns : float; (* same bracket, inert sleeper, clock at zero *)
  mt_bracket_on_ns : float; (* same bracket, sampler on, clock live *)
  mt_gauge_words : float; (* minor words per op, must be 0 *)
  mt_counter_words : float;
  mt_guard_words : float;
  mt_stall : Chaos.stall_report;
  mt_series : Obs.Metrics.series list;
  mt_prom_lines : int;
}

(* min over runs: the robust estimator for "how fast can this loop go",
   which is what an overhead comparison needs *)
let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let v = f () in
    if v < !best then best := v
  done;
  !best

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let run_metrics () =
  Format.printf "@.== Live metrics plane: sampler, watchdog, gauges ==@.";
  Atomicx.Registry.reserve 8;
  (* thresholded workload: Michael-Harris list contains over hp — one
     guard bracket per op around a real traversal, the shape the ≤3%
     sampler-overhead budget is stated against *)
  let keys = 256 in
  let ops = if smoke then 8_000 else 20_000 in
  let rounds = 41 and reps = 2 in
  let l = L_hp.create () in
  for k = 1 to keys do
    ignore (L_hp.add l k)
  done;
  let time_ns_per_op () =
    let t0 = Obs.Sink.now_ns () in
    for k = 1 to ops do
      ignore (L_hp.contains l (1 + (k mod keys)))
    done;
    float_of_int (Obs.Sink.now_ns () - t0) /. float_of_int ops
  in
  (* raw stamp cost: a bare begin/end bracket, allocation-free, so the
     delta between matched configurations is exactly the watchdog's
     clock read + row stores *)
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null "metrics-bench" in
  let s = Scan_hp.create ~max_hps:4 ~sink:Obs.Sink.null alloc in
  let bracket_ops = 100_000 in
  let bracket_ns_per_op () =
    let t0 = Obs.Sink.now_ns () in
    for _ = 1 to bracket_ops do
      Scan_hp.begin_op s ~tid:0;
      Scan_hp.end_op s ~tid:0
    done;
    float_of_int (Obs.Sink.now_ns () - t0) /. float_of_int bracket_ops
  in
  let bracket_idle_ns = best_of (2 * reps) bracket_ns_per_op in
  let sink = Obs.Sink.make () in
  let start_sampler () =
    Obs.Sampler.start ~interval:0.005 ~registry:Obs.Metrics.default ~sink ()
  in
  (* One side of a round: plane on (sampler running, watchdog
     stamping; the clock is paused afterwards so the next off side is
     really off) or off with an inert sleeper domain, so both sides pay
     the runtime's second-domain tax — ~40 ns/op on fenced-store loops
     even when the extra domain only sleeps — and the pair isolates the
     metrics plane itself.  Best of [reps] list and bracket loops. *)
  let side on =
    let finish =
      if on then begin
        let sampler = start_sampler () in
        fun () ->
          Obs.Sampler.stop sampler;
          Obs.Watchdog.pause ()
      end
      else begin
        let stop = Atomic.make false in
        let sleeper =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                Unix.sleepf 0.005
              done)
        in
        fun () ->
          Atomic.set stop true;
          Domain.join sleeper
      end
    in
    let list_ns = best_of reps time_ns_per_op in
    let bracket_ns = best_of reps bracket_ns_per_op in
    finish ();
    (list_ns, bracket_ns)
  in
  (* Alternating rounds: the side that runs first flips every round, so
     drift on the host lands on both sides alike, and the overhead is
     the median of the rounds' on/off ratios, each ratio taken between
     two measurements adjacent in time. *)
  let off = Array.make rounds (0., 0.) and on = Array.make rounds (0., 0.) in
  for i = 0 to rounds - 1 do
    if i land 1 = 0 then begin
      off.(i) <- side false;
      on.(i) <- side true
    end
    else begin
      on.(i) <- side true;
      off.(i) <- side false
    end
  done;
  let median_q f a =
    let a = Array.map f a in
    Array.sort compare a;
    (percentile a 0.5, percentile a 0.25, percentile a 0.75)
  in
  let off_ns, off_q1, off_q3 = median_q fst off in
  let on_ns, on_q1, on_q3 = median_q fst on in
  let bracket_off_ns, _, _ = median_q snd off in
  let bracket_on_ns, _, _ = median_q snd on in
  let ratio, ratio_q1, ratio_q3 =
    median_q
      (fun (o, n) -> fst n /. Float.max 1e-9 (fst o))
      (Array.map2 (fun o n -> (o, n)) off on)
  in
  let overhead_pct = Float.max 0. (100. *. (ratio -. 1.)) in
  let sampler = start_sampler () in
  (* hot-path allocation audit (the acceptance gate).  The guard loop
     here is the bare begin/end bracket — the part the watchdog added
     stores to; the protect path's allocation behaviour is the pack
     section's concern. *)
  let g = Obs.Metrics.gauge Obs.Metrics.default "orcgc_bench_gauge" in
  let c =
    Obs.Metrics.counter Obs.Metrics.default "orcgc_bench_counter_total"
  in
  let audit_ops = 10_000 in
  let gauge_words, _ =
    measure_words_ns (fun () ->
        for k = 1 to audit_ops do
          Obs.Metrics.set g k
        done)
  in
  let counter_words, _ =
    measure_words_ns (fun () ->
        for _ = 1 to audit_ops do
          Atomicx.Shard.incr c ~tid:0
        done)
  in
  let guard_words, _ =
    measure_words_ns (fun () ->
        for _ = 1 to audit_ops do
          Scan_hp.begin_op s ~tid:0;
          Scan_hp.end_op s ~tid:0
        done)
  in
  let per w = w /. float_of_int audit_ops in
  Obs.Sampler.stop sampler;
  (* stall injection (runs its own sampler over a fresh registry) *)
  let stall = Chaos.run_stall () in
  Format.printf
    "  list contains, %d alternating rounds: off median %.1f ns/op [q1 \
     %.1f, q3 %.1f], on median %.1f ns/op [q1 %.1f, q3 %.1f]; on/off \
     per round median %.4f [q1 %.4f, q3 %.4f] (sampler overhead %.2f%%)@."
    rounds off_ns off_q1 off_q3 on_ns on_q1 on_q3 ratio ratio_q1 ratio_q3
    overhead_pct;
  Format.printf
    "  guard bracket: idle %.1f, sleeper %.1f, stamping %.1f ns/op@."
    bracket_idle_ns bracket_off_ns bracket_on_ns;
  Format.printf "  hot-path words/op: gauge %.4f, counter %.4f, guard %.4f@."
    (per gauge_words) (per counter_words) (per guard_words);
  Format.printf "  stall battery: %a@." Chaos.pp_stall_report stall;
  let series = Obs.Metrics.series Obs.Metrics.default in
  let prom = Obs.Metrics.to_prometheus Obs.Metrics.default in
  let prom_lines =
    List.length
      (List.filter
         (fun l -> String.length l > 0)
         (String.split_on_char '\n' prom))
  in
  Scan_hp.flush s;
  {
    mt_off_ns = off_ns;
    mt_on_ns = on_ns;
    mt_overhead_pct = overhead_pct;
    mt_bracket_idle_ns = bracket_idle_ns;
    mt_bracket_off_ns = bracket_off_ns;
    mt_bracket_on_ns = bracket_on_ns;
    mt_gauge_words = per gauge_words;
    mt_counter_words = per counter_words;
    mt_guard_words = per guard_words;
    mt_stall = stall;
    mt_series = series;
    mt_prom_lines = prom_lines;
  }

let metrics_json (r : metrics_row) =
  let open Harness in
  Json.Obj
    [
      ( "overhead",
        Json.Obj
          [
            ("off_ns_per_op", Json.Float r.mt_off_ns);
            ("on_ns_per_op", Json.Float r.mt_on_ns);
            ("overhead_pct", Json.Float r.mt_overhead_pct);
          ] );
      ( "guard_bracket",
        Json.Obj
          [
            ("idle_ns_per_op", Json.Float r.mt_bracket_idle_ns);
            ("sleeper_ns_per_op", Json.Float r.mt_bracket_off_ns);
            ("stamping_ns_per_op", Json.Float r.mt_bracket_on_ns);
          ] );
      ( "hot_path_words_per_op",
        Json.Obj
          [
            ("gauge_set", Json.Float r.mt_gauge_words);
            ("counter_incr", Json.Float r.mt_counter_words);
            ("guard_bracket", Json.Float r.mt_guard_words);
          ] );
      ( "stall",
        Json.Obj
          [
            ("victim_tid", Json.Int r.mt_stall.Chaos.st_victim);
            ("ticks", Json.Int r.mt_stall.Chaos.st_ticks);
            ("stall_reports", Json.Int r.mt_stall.Chaos.st_stalls);
            ("age_max", Json.Int r.mt_stall.Chaos.st_age_max);
            ("detected", Json.Bool r.mt_stall.Chaos.st_detected);
            ("cleared", Json.Bool r.mt_stall.Chaos.st_cleared);
            ("leaked", Json.Int r.mt_stall.Chaos.st_leaked);
            ("ok", Json.Bool (Chaos.stall_ok r.mt_stall));
          ] );
      ("series", Json.List (List.map Obs.Metrics.series_to_json r.mt_series));
      ("prometheus_lines", Json.Int r.mt_prom_lines);
    ]

(* Sampler overhead within 3% of the sampler-off baseline (both sides
   run with a second domain alive, so the number isolates the plane, not
   the runtime's multi-domain tax); allocation-free hot paths (the
   ceiling is a rounding allowance on Gc.minor_words); the stall battery
   flags and clears the parked guard and leaks nothing; every series is
   internally consistent; the registry and scheme wiring is present. *)
let metrics_guards (r : metrics_row) =
  let st = r.mt_stall in
  let consistent (x : Obs.Metrics.series) =
    let n = Array.length x.points in
    let rec increasing i =
      i + 1 >= n || (fst x.points.(i) < fst x.points.(i + 1) && increasing (i + 1))
    in
    guard
      (x.hwm >= x.last && Array.for_all (fun (_, v) -> v <= x.hwm) x.points
      && increasing 0)
      "%s: hwm %d >= last sample %d and every point, ticks increasing" x.name
      x.hwm x.last
  in
  [
    guard (r.mt_overhead_pct <= 3.0)
      "sampler overhead %.2f%% <= 3.0%% (off %.0f ns, on %.0f ns)"
      r.mt_overhead_pct r.mt_off_ns r.mt_on_ns;
    guard st.Chaos.st_detected "watchdog flagged the stalled guard (tid %d)"
      st.Chaos.st_victim;
    guard st.Chaos.st_cleared "stalled slot cleared after guard release";
    guard (Chaos.stall_ok st) "stall battery ok (errors [%s])"
      (String.concat "; " st.Chaos.st_errors);
    guard (st.Chaos.st_leaked = 0) "stall battery leaked %d = 0"
      st.Chaos.st_leaked;
    guard (st.Chaos.st_stalls >= 1) "stall reports %d >= 1" st.Chaos.st_stalls;
    guard (r.mt_series <> []) "%d series sampled > 0" (List.length r.mt_series);
    guard
      (List.exists
         (fun (x : Obs.Metrics.series) -> x.name = "orcgc_registry_active")
         r.mt_series)
      "registry series orcgc_registry_active present";
    guard
      (List.exists
         (fun (x : Obs.Metrics.series) -> List.mem_assoc "scheme" x.labels)
         r.mt_series)
      "a scheme-labelled series present";
    guard (r.mt_prom_lines >= 1) "prometheus lines %d >= 1" r.mt_prom_lines;
  ]
  @ List.map
      (fun (path, w) -> guard (w <= 0.001) "%s %.4f words/op <= 0.001" path w)
      [
        ("gauge_set", r.mt_gauge_words);
        ("counter_incr", r.mt_counter_words);
        ("guard_bracket", r.mt_guard_words);
      ]
  @ List.map consistent r.mt_series

(* ------------------------------------------------------------------ *)
(* Background pipeline: mutator retire-path tail latency, inline vs
   routed through the transfer channel.  Same workload on both sides —
   a single mutator retires fresh unprotected nodes through hp, so
   every threshold crossing costs a full scan inline but only a channel
   send in background mode; the p99.9 is where that difference lives.
   The neutralization and reclaimer-kill batteries ride along, so the
   section's guards check the fault-tolerance claims too. *)

type bg_lat = {
  bl_p50_ns : float;
  bl_p99_ns : float;
  bl_p999_ns : float;
  bl_max_ns : float;
}

type background_row = {
  bk_ops : int;
  bk_inline : bg_lat;
  bk_background : bg_lat;
  bk_sent : int;  (* objects that travelled the channel *)
  bk_fallbacks : int;  (* refused sends reclaimed inline *)
  bk_drained : int;  (* objects the reclaimer drained *)
  bk_leaked : int;  (* both allocators after teardown — must be 0 *)
  bk_neutralize : Chaos.bg_report;
  bk_kill : Chaos.bg_report;
}

let retire_latencies s alloc ~ops =
  let lat = Array.make ops 0. in
  for k = 0 to ops - 1 do
    let n = { s_hdr = Memdom.Alloc.hdr alloc () } in
    let t0 = Obs.Sink.now_ns () in
    Scan_hp.retire s ~tid:0 n;
    lat.(k) <- float_of_int (Obs.Sink.now_ns () - t0)
  done;
  Array.sort compare lat;
  {
    bl_p50_ns = percentile lat 0.5;
    bl_p99_ns = percentile lat 0.99;
    bl_p999_ns = percentile lat 0.999;
    bl_max_ns = lat.(ops - 1);
  }

let run_background () =
  Format.printf
    "@.== Background pipeline: retire tail latency, reclaimer batteries ==@.";
  Atomicx.Registry.reserve 8;
  let ops = if smoke then 20_000 else 60_000 in
  (* inline side *)
  let alloc_i = Memdom.Alloc.create ~sink:Obs.Sink.null "bg-bench-inline" in
  let s_i = Scan_hp.create ~max_hps:4 ~sink:Obs.Sink.null alloc_i in
  let inline = retire_latencies s_i alloc_i ~ops in
  Scan_hp.flush s_i;
  (* background side: fresh scheme, channel + reclaimer domain *)
  let alloc_b = Memdom.Alloc.create ~sink:Obs.Sink.null "bg-bench-bg" in
  let s_b = Scan_hp.create ~max_hps:4 ~sink:Obs.Sink.null alloc_b in
  let ch = Reclaim.Channel.create () in
  let reclaimer = Reclaim.Reclaimer.start ~interval:0.001 ch in
  Scan_hp.set_background s_b (Some ch);
  let bg = retire_latencies s_b alloc_b ~ops in
  Reclaim.Reclaimer.stop reclaimer;
  Scan_hp.set_background s_b None;
  Scan_hp.flush s_b;
  let leaked = Memdom.Alloc.live alloc_i + Memdom.Alloc.live alloc_b in
  let pp_lat label l =
    Format.printf "  %-12s p50 %7.0f ns   p99 %8.0f ns   p99.9 %9.0f ns   \
                   max %9.0f ns@."
      label l.bl_p50_ns l.bl_p99_ns l.bl_p999_ns l.bl_max_ns
  in
  pp_lat "inline" inline;
  pp_lat "background" bg;
  Format.printf
    "  channel: %d objects sent, %d fallbacks, %d drained; leaked %d@."
    (Reclaim.Channel.sent ch)
    (Reclaim.Channel.fallbacks ch)
    (Reclaim.Channel.drained ch)
    leaked;
  let neutralize = Chaos.run_neutralize () in
  Format.printf "  neutralize battery: %a@." Chaos.pp_bg_report neutralize;
  let kill = Chaos.run_reclaimer_kill () in
  Format.printf "  kill battery: %a@." Chaos.pp_bg_report kill;
  {
    bk_ops = ops;
    bk_inline = inline;
    bk_background = bg;
    bk_sent = Reclaim.Channel.sent ch;
    bk_fallbacks = Reclaim.Channel.fallbacks ch;
    bk_drained = Reclaim.Channel.drained ch;
    bk_leaked = leaked;
    bk_neutralize = neutralize;
    bk_kill = kill;
  }

let bg_report_json (r : Chaos.bg_report) =
  let open Harness in
  Json.Obj
    [
      ("name", Json.Str r.Chaos.bg_name);
      ("victim_tid", Json.Int r.Chaos.bg_victim);
      ("neutralized", Json.Bool r.Chaos.bg_neutralized);
      ("victim_raised", Json.Bool r.Chaos.bg_victim_raised);
      ("pinned_freed", Json.Bool r.Chaos.bg_pinned_freed);
      ("sent", Json.Int r.Chaos.bg_sent);
      ("fallbacks", Json.Int r.Chaos.bg_fallbacks);
      ("recovered", Json.Int r.Chaos.bg_recovered);
      ("unreclaimed_after", Json.Int r.Chaos.bg_unreclaimed_after);
      ("leaked", Json.Int r.Chaos.bg_leaked);
      ("ok", Json.Bool (Chaos.bg_ok r));
    ]

let background_json (r : background_row) =
  let open Harness in
  let lat l =
    Json.Obj
      [
        ("p50_ns", Json.Float l.bl_p50_ns);
        ("p99_ns", Json.Float l.bl_p99_ns);
        ("p999_ns", Json.Float l.bl_p999_ns);
        ("max_ns", Json.Float l.bl_max_ns);
      ]
  in
  Json.Obj
    [
      ("ops", Json.Int r.bk_ops);
      ( "retire_latency",
        Json.Obj
          [ ("inline", lat r.bk_inline); ("background", lat r.bk_background) ]
      );
      ( "channel",
        Json.Obj
          [
            ("sent", Json.Int r.bk_sent);
            ("fallbacks", Json.Int r.bk_fallbacks);
            ("drained", Json.Int r.bk_drained);
          ] );
      ("leaked", Json.Int r.bk_leaked);
      ("neutralize_battery", bg_report_json r.bk_neutralize);
      ("kill_battery", bg_report_json r.bk_kill);
    ]

(* The neutralization battery fires (the victim is neutralized and the
   pinned node freed while it is still parked) and the waking victim
   observes the expiry; the kill battery degrades to inline reclamation
   or recovers the backlog; nothing leaks; the A/B used the channel. *)
let background_guards (r : background_row) =
  let battery label (b : Chaos.bg_report) =
    [
      guard (Chaos.bg_ok b) "%s battery ok (errors [%s])" label
        (String.concat "; " b.bg_errors);
      guard (b.bg_leaked = 0) "%s battery leaked %d = 0" label b.bg_leaked;
      guard
        (b.bg_unreclaimed_after = 0)
        "%s battery unreclaimed after %d = 0" label b.bg_unreclaimed_after;
    ]
  in
  let n = r.bk_neutralize and k = r.bk_kill in
  battery "neutralize" n
  @ [
      guard n.bg_neutralized "neutralize: stalled guard neutralized";
      guard n.bg_victim_raised "neutralize: waking victim observed the expiry";
      guard n.bg_pinned_freed "neutralize: pinned node freed while victim parked";
    ]
  @ battery "kill" k
  @ [
      guard
        (k.bg_fallbacks + k.bg_recovered >= 1)
        "kill: fallbacks %d + recovered %d >= 1" k.bg_fallbacks k.bg_recovered;
      guard (r.bk_leaked = 0) "latency A/B leaked %d = 0" r.bk_leaked;
      guard (r.bk_sent >= 1) "latency A/B sent %d >= 1 through the channel"
        r.bk_sent;
    ]

(* ------------------------------------------------------------------ *)
(* Adaptive controller A/B: the same phase-shifting workload — steady
   churn, then a stall-injected phase (a victim parks inside a guard
   pinning a slot), then a retire-heavy burst — run over a static EBR
   deployment (no neutralization: the paper's blocking baseline), a
   static HP deployment (the robust baseline) and the adaptive stack
   (Switchable + Controller + armed neutralizing reclaimer).  The
   adaptive row must match EBR's calm throughput, keep the stall-phase
   unreclaimed high-water mark in HP territory instead of EBR's
   unbounded pile-up, and relax back once the stall clears
   ([adaptive_guards]). *)

module Ad_ebr = Reclaim.Ebr.Make (SN)
module Ad_sw = Reclaim.Switchable.Make (SN)

type ad_phase = { ap_mops : float; ap_hwm : int }

type ad_row = {
  ar_name : string;
  ar_calm : ad_phase;
  ar_stall : ad_phase;
  ar_burst : ad_phase;
  ar_escalations : int;
  ar_relaxations : int;
  ar_mode_after : int; (* -1 for the static contestants *)
  ar_decisions : int;
  ar_victim_raised : bool;
  ar_leaked : int;
  ar_unreclaimed_after : int;
}

(* Closure bundle so one phase driver covers all three contestants
   without functor plumbing. *)
type ad_api = {
  aa_begin : tid:int -> unit;
  aa_end : tid:int -> unit;
  aa_protect : tid:int -> snode option -> unit;
  aa_get : tid:int -> snode Atomicx.Link.t -> unit;
  aa_retire : tid:int -> snode -> unit;
  aa_unreclaimed : unit -> int;
  aa_flush : unit -> unit;
  aa_tick : unit -> unit; (* controller tick; no-op for statics *)
  aa_teardown : unit -> unit;
  aa_escalations : unit -> int;
  aa_relaxations : unit -> int;
  aa_mode : unit -> int;
  aa_decisions : unit -> int;
}

let ad_phase_dur = if smoke then 0.1 else 0.2

(* One churn phase on the calling thread: swap fresh nodes into the
   table, retire the evictees ([extra] additional retires per op models
   the burst phase), tick the controller and sample the unreclaimed
   high-water mark every 64 ops. *)
let ad_churn api arena table alloc ~tid ~extra =
  let rng = ref 0x9E3779B9 in
  let next_slot () =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 16) land 7
  in
  let ops = ref 0 and hwm = ref 0 in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. ad_phase_dur in
  while Unix.gettimeofday () < t_end do
    incr ops;
    api.aa_begin ~tid;
    (* paper-style read-mostly mix: two protected reads, one update *)
    api.aa_get ~tid table.(next_slot ());
    api.aa_get ~tid table.(next_slot ());
    let n = { s_hdr = Memdom.Alloc.hdr alloc () } in
    api.aa_protect ~tid (Some n);
    let nv = Atomicx.Link.v_ptr_in arena n in
    let old = Atomicx.Link.exchange_v table.(next_slot ()) nv in
    api.aa_end ~tid;
    if Atomicx.Link.v_has_target old then
      api.aa_retire ~tid (Atomicx.Link.v_node arena old);
    for _ = 1 to extra do
      api.aa_retire ~tid { s_hdr = Memdom.Alloc.hdr alloc () }
    done;
    if !ops land 255 = 0 then begin
      hwm := max !hwm (api.aa_unreclaimed ());
      if !ops land 511 = 0 then api.aa_tick ()
    end
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ({ ap_mops = float_of_int !ops /. dt /. 1e6; ap_hwm = !hwm }, !ops)

let ad_contest ~name (mk_api : Memdom.Alloc.t -> ad_api) =
  (* level the field: earlier contestants leave a large major heap
     behind, and GC pause inheritance would bias the later rows *)
  Gc.compact ();
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null ("adaptive-" ^ name) in
  let api = mk_api alloc in
  let tid = Atomicx.Registry.tid () in
  let arena = Memdom.Handle.arena ~hdr:(fun n -> n.s_hdr) () in
  let table =
    Array.init 8 (fun _ ->
        Atomicx.Link.make_in arena
          (Atomicx.Link.Ptr { s_hdr = Memdom.Alloc.hdr alloc () }))
  in
  (* untimed warmup: domain spawns (reclaimer, controller state) and
     first-touch of the pool all land outside the measured windows *)
  let warm_end = Unix.gettimeofday () +. 0.02 in
  while Unix.gettimeofday () < warm_end do
    api.aa_begin ~tid;
    api.aa_protect ~tid None;
    api.aa_end ~tid
  done;
  (* phase 1: steady churn *)
  let calm, _ = ad_churn api arena table alloc ~tid ~extra:0 in
  (* phase 2: stall-injected churn *)
  let started = Atomic.make false in
  let release = Atomic.make false in
  let victim_raised = Atomic.make false in
  let victim =
    Domain.spawn (fun () ->
        Atomicx.Registry.with_tid (fun vtid ->
            api.aa_begin ~tid:vtid;
            (try api.aa_get ~tid:vtid table.(0)
             with Reclaim.Neutralize.Neutralized _ -> ());
            Atomic.set started true;
            while not (Atomic.get release) do
              Unix.sleepf 0.0005
            done;
            (* adaptive only: the wake-after-neutralize handshake *)
            (try api.aa_get ~tid:vtid table.(1)
             with Reclaim.Neutralize.Neutralized _ ->
               Atomic.set victim_raised true);
            api.aa_end ~tid:vtid))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let stall, _ = ad_churn api arena table alloc ~tid ~extra:0 in
  Atomic.set release true;
  Domain.join victim;
  (* phase 3: retire-heavy burst with the stall gone — the adaptive
     stack must relax back toward the fast policy in here *)
  let burst, _ = ad_churn api arena table alloc ~tid ~extra:3 in
  (* quiesce *)
  Array.iter
    (fun slot ->
      let old = Atomicx.Link.exchange_v slot Atomicx.Link.v_null in
      if Atomicx.Link.v_has_target old then
        api.aa_retire ~tid (Atomicx.Link.v_node arena old))
    table;
  api.aa_teardown ();
  api.aa_flush ();
  {
    ar_name = name;
    ar_calm = calm;
    ar_stall = stall;
    ar_burst = burst;
    ar_escalations = api.aa_escalations ();
    ar_relaxations = api.aa_relaxations ();
    ar_mode_after = api.aa_mode ();
    ar_decisions = api.aa_decisions ();
    ar_victim_raised = Atomic.get victim_raised;
    ar_leaked = Memdom.Alloc.live alloc;
    ar_unreclaimed_after = api.aa_unreclaimed ();
  }

let ad_static_none = fun () -> 0
let ad_static_mode = fun () -> -1

let ad_ebr_api alloc =
  let s = Ad_ebr.create ~max_hps:4 ~sink:Obs.Sink.null alloc in
  {
    aa_begin = (fun ~tid -> Ad_ebr.begin_op s ~tid);
    aa_end = (fun ~tid -> Ad_ebr.end_op s ~tid);
    aa_protect = (fun ~tid n -> Ad_ebr.protect_raw s ~tid ~idx:0 n);
    aa_get = (fun ~tid l -> ignore (Ad_ebr.get_protected_v s ~tid ~idx:0 l));
    aa_retire = (fun ~tid n -> Ad_ebr.retire s ~tid n);
    aa_unreclaimed = (fun () -> Ad_ebr.unreclaimed s);
    aa_flush = (fun () -> Ad_ebr.flush s);
    aa_tick = ignore;
    aa_teardown = ignore;
    aa_escalations = ad_static_none;
    aa_relaxations = ad_static_none;
    aa_mode = ad_static_mode;
    aa_decisions = ad_static_none;
  }

let ad_hp_api alloc =
  let s = Scan_hp.create ~max_hps:4 ~sink:Obs.Sink.null alloc in
  {
    aa_begin = (fun ~tid -> Scan_hp.begin_op s ~tid);
    aa_end = (fun ~tid -> Scan_hp.end_op s ~tid);
    aa_protect = (fun ~tid n -> Scan_hp.protect_raw s ~tid ~idx:0 n);
    aa_get = (fun ~tid l -> ignore (Scan_hp.get_protected_v s ~tid ~idx:0 l));
    aa_retire = (fun ~tid n -> Scan_hp.retire s ~tid n);
    aa_unreclaimed = (fun () -> Scan_hp.unreclaimed s);
    aa_flush = (fun () -> Scan_hp.flush s);
    aa_tick = ignore;
    aa_teardown = ignore;
    aa_escalations = ad_static_none;
    aa_relaxations = ad_static_none;
    aa_mode = ad_static_mode;
    aa_decisions = ad_static_none;
  }

let ad_adaptive_api alloc =
  let s = Ad_sw.create ~max_hps:4 alloc in
  let channel = Reclaim.Channel.create ~bound:512 () in
  Ad_sw.set_background s (Some channel);
  (* neutralize_age well above stall_age_hi: neutralization erases the
     victim's watchdog row (generation bump), so the controller's
     [2, 6) observation window must be wide enough that a scheduler
     preemption of this (ticking) thread cannot swallow it whole *)
  let reclaimer = Reclaim.Reclaimer.start ~neutralize_age:6 channel in
  let ctrl =
    Reclaim.Controller.create
      ~cfg:
        {
          Reclaim.Controller.unreclaimed_hi = 100_000;
          unreclaimed_lo = 2048;
          stall_age_hi = 2;
          calm_ticks = 3;
        }
      ~reclaimer ~channel
      [
        Reclaim.Controller.target ~label:"bench"
          ~mode:(fun () -> Ad_sw.mode s)
          ~escalate:(fun () -> Ad_sw.escalate s)
          ~try_complete:(fun () -> Ad_sw.try_complete s)
          ~relax:(fun () -> Ad_sw.relax s)
          ~tuning:(Ad_sw.tuning s)
          ~unreclaimed:(fun () -> Ad_sw.unreclaimed s)
          ~stall_age:(fun () -> Ad_sw.stall_age_max s)
          ();
      ]
  in
  {
    aa_begin = (fun ~tid -> Ad_sw.begin_op s ~tid);
    aa_end = (fun ~tid -> Ad_sw.end_op s ~tid);
    aa_protect = (fun ~tid n -> Ad_sw.protect_raw s ~tid ~idx:0 n);
    aa_get = (fun ~tid l -> ignore (Ad_sw.get_protected_v s ~tid ~idx:0 l));
    aa_retire = (fun ~tid n -> Ad_sw.retire s ~tid n);
    aa_unreclaimed = (fun () -> Ad_sw.unreclaimed s);
    aa_flush = (fun () -> Ad_sw.flush s);
    aa_tick = (fun () -> Reclaim.Controller.tick ctrl);
    aa_teardown =
      (fun () ->
        Reclaim.Reclaimer.stop reclaimer;
        Ad_sw.set_background s None;
        Reclaim.Channel.keep_alive channel);
    aa_escalations = (fun () -> Ad_sw.escalations s);
    aa_relaxations = (fun () -> Ad_sw.relaxations s);
    aa_mode = (fun () -> Ad_sw.mode s);
    aa_decisions = (fun () -> Reclaim.Controller.decisions ctrl);
  }

let ad_rounds = 5

(* Per-phase maxima across rounds: throughput noise on a shared box is
   one-sided (preemption only slows a phase down), so the max converges
   on the machine's true rate; counters and leak totals sum. *)
let ad_merge a b =
  let phase p q =
    { ap_mops = Float.max p.ap_mops q.ap_mops; ap_hwm = max p.ap_hwm q.ap_hwm }
  in
  {
    ar_name = a.ar_name;
    ar_calm = phase a.ar_calm b.ar_calm;
    ar_stall = phase a.ar_stall b.ar_stall;
    ar_burst = phase a.ar_burst b.ar_burst;
    ar_escalations = a.ar_escalations + b.ar_escalations;
    ar_relaxations = a.ar_relaxations + b.ar_relaxations;
    ar_mode_after = b.ar_mode_after;
    ar_decisions = a.ar_decisions + b.ar_decisions;
    ar_victim_raised = a.ar_victim_raised || b.ar_victim_raised;
    ar_leaked = a.ar_leaked + b.ar_leaked;
    ar_unreclaimed_after = a.ar_unreclaimed_after + b.ar_unreclaimed_after;
  }

let run_adaptive_bench () =
  Format.printf
    "@.== Adaptive controller A/B: steady -> stall -> burst (%.2fs/phase, \
     %d rounds) ==@."
    ad_phase_dur ad_rounds;
  Atomicx.Registry.reserve 8;
  (* start the global watchdog clock before any contestant runs: the
     adaptive rounds start it anyway (reclaimer self-clock), so an
     early static round must not get a stamp-free ride the later ones
     don't *)
  ignore (Obs.Watchdog.advance ());
  let round () =
    [
      ad_contest ~name:"ebr-static" ad_ebr_api;
      ad_contest ~name:"hp-static" ad_hp_api;
      ad_contest ~name:"adaptive" ad_adaptive_api;
    ]
  in
  let rows =
    List.fold_left
      (fun acc _ -> List.map2 ad_merge acc (round ()))
      (round ())
      (List.init (ad_rounds - 1) Fun.id)
  in
  Format.printf "  %-12s %10s %10s %10s %12s %12s %6s %6s@." "contestant"
    "calm-Mops" "stall-Mops" "burst-Mops" "stall-hwm" "burst-hwm" "esc"
    "relax";
  List.iter
    (fun r ->
      Format.printf "  %-12s %10.3f %10.3f %10.3f %12d %12d %6d %6d@."
        r.ar_name r.ar_calm.ap_mops r.ar_stall.ap_mops r.ar_burst.ap_mops
        r.ar_stall.ap_hwm r.ar_burst.ap_hwm r.ar_escalations r.ar_relaxations)
    rows;
  (match List.find_opt (fun r -> r.ar_name = "adaptive") rows with
  | Some r ->
      Format.printf
        "  adaptive: final mode %d, %d controller decisions, victim raised \
         %b, leaked %d@."
        r.ar_mode_after r.ar_decisions r.ar_victim_raised r.ar_leaked
  | None -> ());
  rows

let adaptive_json rows =
  let open Harness in
  let phase p =
    Json.Obj
      [ ("mops", Json.Float p.ap_mops); ("unreclaimed_hwm", Json.Int p.ap_hwm) ]
  in
  Json.Obj
    (List.map
       (fun r ->
         ( r.ar_name,
           Json.Obj
             [
               ("calm", phase r.ar_calm);
               ("stall", phase r.ar_stall);
               ("burst", phase r.ar_burst);
               ("escalations", Json.Int r.ar_escalations);
               ("relaxations", Json.Int r.ar_relaxations);
               ("mode_after", Json.Int r.ar_mode_after);
               ("decisions", Json.Int r.ar_decisions);
               ("victim_raised", Json.Bool r.ar_victim_raised);
               ("leaked", Json.Int r.ar_leaked);
               ("unreclaimed_after", Json.Int r.ar_unreclaimed_after);
             ] ))
       rows
    @ [ ("rounds", Json.Int ad_rounds) ])

(* Over the merged rounds: the adaptive stack keeps 0.85x static EBR's
   calm throughput (the target is 0.9x; the floor leaves margin for
   scheduler noise on small shared boxes, see EXPERIMENTS.md), holds its
   stall-phase pile-up under 0.5x EBR's, drains it in the burst (under
   0.5x its stall hwm), runs the ladder both ways back to Fast, raises
   [Neutralized] in the parked victim, and no contestant leaks. *)
let adaptive_guards rows =
  let row name = List.find (fun r -> r.ar_name = name) rows in
  let ebr = row "ebr-static" and a = row "adaptive" in
  let ratio = a.ar_calm.ap_mops /. Float.max 1e-9 ebr.ar_calm.ap_mops in
  [
    guard (ratio >= 0.85) "calm %.3f Mops = %.2fx static EBR >= 0.85x"
      a.ar_calm.ap_mops ratio;
    guard
      (float_of_int a.ar_stall.ap_hwm
      <= 0.5 *. float_of_int ebr.ar_stall.ap_hwm)
      "stall hwm %d <= 0.5x EBR's %d" a.ar_stall.ap_hwm ebr.ar_stall.ap_hwm;
    guard
      (a.ar_stall.ap_hwm = 0
      || float_of_int a.ar_burst.ap_hwm
         <= 0.5 *. float_of_int a.ar_stall.ap_hwm)
      "burst hwm %d <= 0.5x stall hwm %d" a.ar_burst.ap_hwm a.ar_stall.ap_hwm;
    guard (a.ar_escalations >= 1) "escalations %d >= 1" a.ar_escalations;
    guard (a.ar_relaxations >= 1) "relaxations %d >= 1" a.ar_relaxations;
    guard (a.ar_mode_after = 0) "final mode %d = Fast (0)" a.ar_mode_after;
    guard a.ar_victim_raised "stalled victim raised Neutralized";
    guard (a.ar_decisions > 0) "controller decisions %d > 0" a.ar_decisions;
  ]
  @ List.concat_map
      (fun r ->
        [
          guard (r.ar_leaked = 0) "%s: leaked %d = 0" r.ar_name r.ar_leaked;
          guard
            (r.ar_unreclaimed_after = 0)
            "%s: unreclaimed after flush %d = 0" r.ar_name
            r.ar_unreclaimed_after;
        ])
      rows

let params_json () =
  let open Harness in
  Json.Obj
    [
      ("threads", Json.List (List.map (fun t -> Json.Int t) params.threads));
      ("duration_s", Json.Float params.duration);
      ("list_keys", Json.Int params.list_keys);
      ("big_keys", Json.Int params.big_keys);
      ("smoke", Json.Bool smoke);
    ]

(* ------------------------------------------------------------------ *)
(* Sections.  [run] prints a section and returns its typed rows, [json]
   turns them into BENCH_orc.json entries and [guards] states the
   section's claims on them.  A standalone section runs under the flag
   [--name]; the figures, tracing and micros run in the default and
   smoke runs only. *)

type 'r section = {
  name : string;
  run : unit -> 'r;
  json : 'r -> (string * Harness.Json.t) list;
  guards : 'r -> guard list;
}

type any = Section : 'r section -> any

let no_guards _ = []

(* A section whose rows land under one BENCH_orc.json key. *)
let section name ~key run json guards =
  Section { name; run; json = (fun r -> [ (key, json r) ]); guards }

let figures =
  Section
    {
      name = "figures";
      run =
        (fun () ->
          List.concat_map
            (fun e -> Harness.Experiments.run_experiment e params)
            Harness.Experiments.all_experiments);
      json = Fun.id;
      guards = no_guards;
    }

let micro_json rows =
  Harness.Json.Obj (List.map (fun (n, e) -> (n, Harness.Json.Float e)) rows)

let tracing =
  section "tracing" ~key:"reclamation_tracing" run_tracing tracing_json
    tracing_guards

let micro = section "micro" ~key:"micro_ns_per_op" run_micro micro_json no_guards
let churn = section "churn" ~key:"domain_churn" run_churn churn_json churn_guards
let alloc = section "alloc" ~key:"allocator" run_alloc alloc_json alloc_guards
let scan = section "scan" ~key:"scan_overhaul" run_scan scan_json scan_guards

let standalone =
  [
    churn;
    alloc;
    scan;
    section "pack" ~key:"pack" run_pack pack_json pack_guards;
    section "metrics" ~key:"metrics" run_metrics metrics_json metrics_guards;
    section "background" ~key:"background" run_background background_json
      background_guards;
    section "adaptive" ~key:"adaptive" run_adaptive_bench adaptive_json
      adaptive_guards;
  ]

let usage () =
  prerr_endline
    ("usage: main.exe [--smoke] [--json] [--trace=FILE] "
    ^ String.concat " "
        (List.map (fun (Section s) -> "[--" ^ s.name ^ "]") standalone));
  exit 2

(* Run [sections] in order, write their entries (when --json), then print
   every violated guard and exit 1 if there is one: the JSON is written
   first so the artifact still shows the failure. *)
let run_sections sections =
  let entries, guards =
    List.fold_left
      (fun (entries, guards) (Section s) ->
        let rows = s.run () in
        ( entries @ s.json rows,
          guards @ List.map (fun g -> (s.name, g)) (s.guards rows) ))
      ([], []) sections
  in
  let failed = List.filter (fun (_, (_, ok)) -> not ok) guards in
  (match json_out with
  | None -> ()
  | Some path ->
      Harness.Json.write_merged path
        (("params", params_json ())
        :: ("unit", Harness.Json.Str "Mops/s unless stated")
        :: entries);
      Format.printf "@.merged into %s@." path);
  List.iter
    (fun (name, (claim, _)) -> Format.printf "FAIL %s: %s@." name claim)
    failed;
  Format.printf "@.%d guards checked, %d failed@." (List.length guards)
    (List.length failed);
  if failed <> [] then exit 1

let () =
  let flags =
    "--smoke" :: "--json"
    :: List.map (fun (Section s) -> "--" ^ s.name) standalone
  in
  if List.exists (fun a -> not (List.mem a flags || trace_file a <> None)) args
  then usage ();
  Format.printf
    "OrcGC reproduction benchmarks (threads: %s, %.2fs/point%s)@."
    (String.concat "," (List.map string_of_int params.threads))
    params.duration
    (if smoke then ", smoke" else "");
  let chosen =
    List.filter (fun (Section s) -> List.mem ("--" ^ s.name) args) standalone
  in
  run_sections
    (if chosen <> [] then chosen
     else if smoke then [ tracing; alloc; scan; micro ]
     else [ figures; tracing; churn; alloc; scan; micro ]);
  Format.printf "@.done.@."
