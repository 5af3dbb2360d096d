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
     --metrics      sampler overhead, allocation audit
     --stall        EBR + neutralizing reclaimer vs static EBR and HP,
                    and the stall battery

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
  let threads, duration, list_keys, big_keys =
    if smoke then ([ 1; 2 ], 0.05, 200, 1_000)
    else ([ 1; 2; 4 ], 0.15, 1_000, 20_000)
  in
  { Harness.Experiments.threads; duration; list_keys; big_keys; csv = None }

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

(* The report of a histogram that holds samples. *)
let sampled get sink =
  match get sink with
  | Some h when Obs.Hist.count h > 0 -> Some (Obs.Hist.report h)
  | _ -> None

let hist_field name = function
  | Some rep -> [ (name, Obs.Hist.report_to_json rep) ]
  | None -> []

(* Instant lifecycle events per name.  Recycle replaces Alloc on the pool
   hit path, so recycle / (alloc + recycle) is the pool hit rate. *)
let print_trace_tally doc =
  let counts = Hashtbl.create 16 in
  let count name = Option.value ~default:0 (Hashtbl.find_opt counts name) in
  (match Obs.Json.member "traceEvents" doc with
  | Some (Obs.Json.List evs) ->
      List.iter
        (fun ev ->
          match (Obs.Json.member "ph" ev, Obs.Json.member "name" ev) with
          | Some (Obs.Json.Str "i"), Some (Obs.Json.Str name) ->
              Hashtbl.replace counts name (1 + count name)
          | _ -> ())
        evs
  | _ -> ());
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
      hist_field name (hist_report get r.Experiments.t_sink)
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
      let rf = sampled Obs.Sink.retire_free_hist sink in
      let ad = sampled Obs.Sink.adopt_hist sink in
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
             @ hist_field "retire_free_ns" rf
             @ hist_field "adopt_ns" ad) ))
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
  Format.printf
    "@.== Allocator: System vs type-stable Pool (200000 ops, 1 domain) ==@.";
  let rows = Harness.Experiments.alloc_modes () in
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
    match sampled Obs.Sink.retire_free_hist sink with
    | Some rep -> (rep.Obs.Hist.p50, rep.Obs.Hist.p99)
    | None -> (-1, -1)
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

(* -1 marks a value not measured *)
let opt_int x = if x < 0 then Harness.Json.Null else Harness.Json.Int x

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
             ("retire_free_p50_ns", opt_int r.sc_rf_p50);
             ("retire_free_p99_ns", opt_int r.sc_rf_p99);
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

let pack_schemes () =
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

(* Node footprint: the exact minor words one add/remove pair allocates
   on a warm orc split map — the node, its header on a pool miss, and
   the per-add closure.  A warm map initializes no bucket and grows no
   directory, and a removed node is freed inside its remove, so every
   pair allocates the same words.  The bounds are the exact counts
   today: the node is its own link, the era stamps a header word, and
   the header seven fields (label and retire stamp packed into spare
   bits).  [fp_before] is the count before the last change that moved
   it: 29 on System with the nine-field header, 22 on Pool (which
   recycles headers) with a separate link block. *)
type footprint_row = {
  fp_mode : string;
  fp_words : float; (* minor words per add/remove pair *)
  fp_bound : float;
  fp_before : float;
}

module Fp_map = Ds.Orc_split_map.Make ()

let footprint_run mode ~bound ~before =
  let m = Fp_map.create ~mode () in
  let keys = 512 in
  for k = 1 to keys do
    ignore (Fp_map.add m (2 * k))
  done;
  let pairs () =
    for k = 1 to keys do
      ignore (Fp_map.add m ((2 * k) + 1));
      ignore (Fp_map.remove m ((2 * k) + 1))
    done
  in
  pairs ();
  let words, _ = measure_words_ns pairs in
  Fp_map.destroy m;
  Fp_map.flush m;
  {
    fp_mode =
      (match mode with Memdom.Alloc.System -> "system" | Pool -> "pool");
    fp_words = words /. float_of_int keys;
    fp_bound = bound;
    fp_before = before;
  }

type pack_result = { rows : pack_row list; footprint : footprint_row list }

let run_pack () =
  let rows = pack_schemes () in
  let footprint =
    [
      footprint_run Memdom.Alloc.System ~bound:27. ~before:29.;
      footprint_run Memdom.Alloc.Pool ~bound:20. ~before:22.;
    ]
  in
  Format.printf "  split-map add/remove pair (orc): minor words@.";
  Format.printf "  %-8s %10s %8s %8s@." "alloc" "words" "bound" "before";
  List.iter
    (fun r ->
      Format.printf "  %-8s %10.2f %8.0f %8.0f@." r.fp_mode r.fp_words
        r.fp_bound r.fp_before)
    footprint;
  { rows; footprint }

let pack_json { rows; footprint } =
  let open Harness in
  [
    ( "pack",
      Json.List
        (List.map
           (fun r ->
             Json.Obj
               [
                 ("scheme", Json.Str r.pk_scheme);
                 ("read_ns", Json.Float r.pk_read_ns);
                 ("read_words_per_op", Json.Float r.pk_read_words);
                 ("retire_ns", Json.Float r.pk_retire_ns);
                 ("cas_retries", opt_int r.pk_cas_retries);
               ])
           rows) );
    ( "pack_footprint",
      Json.List
        (List.map
           (fun r ->
             Json.Obj
               [
                 ("alloc", Json.Str r.fp_mode);
                 ("words_per_pair", Json.Float r.fp_words);
                 ("bound", Json.Float r.fp_bound);
                 ("before", Json.Float r.fp_before);
               ])
           footprint) );
  ]

(* The protected-read path allocates nothing: the ceiling is a rounding
   allowance for fixed costs amortized over the measured hops.  A node
   or header that grows breaks the footprint bounds. *)
let pack_guards { rows; footprint } =
  guard (rows <> []) "%d schemes measured > 0" (List.length rows)
  :: List.map
       (fun r ->
         guard (r.pk_read_words <= 0.05) "%s: %.3f words/read <= 0.05"
           r.pk_scheme r.pk_read_words)
       rows
  @ List.map
      (fun r ->
        guard (r.fp_words <= r.fp_bound)
          "split map (%s): %.2f minor words per add/remove pair <= %.0f \
           (%.0f before)"
          r.fp_mode r.fp_words r.fp_bound r.fp_before)
      footprint

(* ------------------------------------------------------------------ *)
(* Live metrics plane: sampler-overhead A/B on a guard-per-op list
   traversal, the raw watchdog-stamp cost on a bare guard bracket, a
   hot-path allocation audit (gauge set, counter bump, guard bracket —
   all must stay at exactly zero minor words) and a snapshot of the
   sampled series.  The stall battery runs in the stall section. *)

type metrics_row = {
  mt_off_ns : float; (* list contains ns/op, plane off (inert sleeper) *)
  mt_on_ns : float; (* same loop, background domain + watchdog stamping *)
  mt_overhead_pct : float;
  mt_ratio_q1 : float; (* per-round on/off ratio quartiles *)
  mt_ratio_q3 : float;
  mt_bracket_idle_ns : float; (* bare begin/end bracket, plane off, 1 domain *)
  mt_bracket_off_ns : float; (* same bracket, inert sleeper, clock at zero *)
  mt_bracket_on_ns : float; (* same bracket, plane on, clock live *)
  mt_gauge_words : float; (* minor words per op, must be 0 *)
  mt_counter_words : float;
  mt_guard_words : float;
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

(* The spread of per-round values: min, quartiles, median and max,
   each the sorted value at that rank (the median of an odd count is
   its middle value). *)
type spread = { lo : float; q1 : float; med : float; q3 : float; hi : float }

let spread a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  let at p = a.(min (n - 1) (int_of_float (p *. float_of_int n))) in
  { lo = at 0.; q1 = at 0.25; med = at 0.5; q3 = at 0.75; hi = at 1. }

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
  let start_plane () =
    Reclaim.Reclaimer.start ~interval:0.005 ~sink ~neutralize:false ()
  in
  (* One side of a round: plane on (background domain, watchdog
     stamping; the clock is paused afterwards so the next off side is
     really off) or off with an inert sleeper domain, so both sides pay
     the runtime's second-domain tax — ~40 ns/op on fenced-store loops
     even when the extra domain only sleeps — and the pair isolates the
     metrics plane itself.  Best of [reps] list and bracket loops. *)
  let side on =
    let finish =
      if on then begin
        let plane = start_plane () in
        fun () ->
          Reclaim.Reclaimer.stop plane;
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
  let off_list = spread (Array.map fst off) in
  let on_list = spread (Array.map fst on) in
  let off_ns = off_list.med and on_ns = on_list.med in
  let bracket_off_ns = (spread (Array.map snd off)).med in
  let bracket_on_ns = (spread (Array.map snd on)).med in
  let ratio =
    spread (Array.map2 (fun o n -> fst n /. Float.max 1e-9 (fst o)) off on)
  in
  let overhead_pct = Float.max 0. (100. *. (ratio.med -. 1.)) in
  let plane = start_plane () in
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
  Reclaim.Reclaimer.stop plane;
  Format.printf
    "  list contains, %d alternating rounds: off median %.1f ns/op [q1 \
     %.1f, q3 %.1f], on median %.1f ns/op [q1 %.1f, q3 %.1f]; on/off \
     per round median %.4f [q1 %.4f, q3 %.4f] (sampler overhead %.2f%%)@."
    rounds off_ns off_list.q1 off_list.q3 on_ns on_list.q1 on_list.q3 ratio.med
    ratio.q1 ratio.q3 overhead_pct;
  Format.printf
    "  guard bracket: idle %.1f, sleeper %.1f, stamping %.1f ns/op@."
    bracket_idle_ns bracket_off_ns bracket_on_ns;
  Format.printf "  hot-path words/op: gauge %.4f, counter %.4f, guard %.4f@."
    (per gauge_words) (per counter_words) (per guard_words);
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
    mt_ratio_q1 = ratio.q1;
    mt_ratio_q3 = ratio.q3;
    mt_bracket_idle_ns = bracket_idle_ns;
    mt_bracket_off_ns = bracket_off_ns;
    mt_bracket_on_ns = bracket_on_ns;
    mt_gauge_words = per gauge_words;
    mt_counter_words = per counter_words;
    mt_guard_words = per guard_words;
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
            ("ratio_q1", Json.Float r.mt_ratio_q1);
            ("ratio_q3", Json.Float r.mt_ratio_q3);
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
      ("series", Json.List (List.map Obs.Metrics.series_to_json r.mt_series));
      ("prometheus_lines", Json.Int r.mt_prom_lines);
    ]

(* Sampler overhead within 3% of the sampler-off baseline (both sides
   run with a second domain alive, so the number isolates the plane, not
   the runtime's multi-domain tax); allocation-free hot paths (the
   ceiling is a rounding allowance on Gc.minor_words); every series is
   internally consistent; the registry and scheme wiring is present. *)
let metrics_guards (r : metrics_row) =
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
(* Stall remedy A/B: the same phase-shifting workload — steady churn,
   then a stall-injected phase (a victim parks inside a guard pinning
   a slot), then a retire-heavy burst — run over static EBR (no
   neutralization: the paper's blocking baseline), static HP (the
   robust baseline) and EBR beside the neutralizing reclaimer (Brown's
   DEBRA+ remedy, no mode switch).  Each round rotates the running
   order.  On the median of the per-round ratios, the neutralizing row
   keeps 0.85x static EBR's calm throughput, holds its stall pile-up
   under 0.5x EBR's and drains it in the burst (under 0.5x its stall
   hwm); its parked victim raises [Neutralized], and no contestant
   leaks or leaves anything unreclaimed ([stall_guards]).  The chaos
   stall battery rides along after the rounds: its victim's stall is
   reported and then neutralized, it stops being flagged and stops
   pinning memory while still parked, it raises on waking, and the two
   domains killed mid-stall are force-released. *)

module St_ebr = Reclaim.Ebr.Make (SN)

type st_row = {
  sr_name : string;
  sr_phases : (float * float) array; (* Mops, hwm: calm, stall, burst *)
  sr_victim_raised : bool;
  sr_leaked : int;
  sr_unreclaimed_after : int;
}

(* A contestant: its scheme, and what stops its reclaimer. *)
type st_scheme =
  | Scheme :
      (module Reclaim.Scheme_intf.S with type node = snode and type t = 's)
      * 's
      * (unit -> unit)
      -> st_scheme

let st_static (module S : Reclaim.Scheme_intf.S with type node = snode) alloc
    =
  Scheme ((module S), S.create ~max_hps:4 ~sink:Obs.Sink.null alloc, ignore)

(* Static EBR, reclaiming inline, beside a reclaimer armed to expire
   any guard the watchdog validates as stalled for 6 ticks. *)
let st_neutralize alloc =
  let s = St_ebr.create ~max_hps:4 ~sink:Obs.Sink.null alloc in
  let domain = Reclaim.Reclaimer.start ~stall_age:6 ~neutralize:true () in
  Scheme ((module St_ebr), s, fun () -> Reclaim.Reclaimer.stop domain)

let st_contestants =
  [
    ("ebr-static", st_static (module St_ebr));
    ("hp-static", st_static (module Scan_hp));
    ("ebr+neutralize", st_neutralize);
  ]

let st_phase_dur = if smoke then 0.1 else 0.2
let st_rounds = 9

(* One churn phase on the calling thread: swap fresh nodes into the
   table, retire the evictees ([extra] additional retires per op models
   the burst phase) and sample the unreclaimed high-water mark every
   256 ops. *)
let st_churn (type s)
    (module S : Reclaim.Scheme_intf.S with type node = snode and type t = s)
    (s : s) arena table alloc ~tid ~extra =
  let rng = ref 0x9E3779B9 in
  let next_slot () =
    rng := (!rng * 1103515245) + 12345;
    (!rng lsr 16) land 7
  in
  let ops = ref 0 and hwm = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () < t0 +. st_phase_dur do
    incr ops;
    S.begin_op s ~tid;
    (* paper-style read-mostly mix: two protected reads, one update *)
    ignore (S.get_protected_v s ~tid ~idx:0 table.(next_slot ()));
    ignore (S.get_protected_v s ~tid ~idx:0 table.(next_slot ()));
    let n = { s_hdr = Memdom.Alloc.hdr alloc () } in
    S.protect_raw s ~tid ~idx:0 (Some n);
    let nv = Atomicx.Link.v_ptr_in arena n in
    let old = Atomicx.Link.exchange_v table.(next_slot ()) nv in
    S.end_op s ~tid;
    if Atomicx.Link.v_has_target old then
      S.retire s ~tid (Atomicx.Link.v_node arena old);
    for _ = 1 to extra do
      S.retire s ~tid { s_hdr = Memdom.Alloc.hdr alloc () }
    done;
    if !ops land 255 = 0 then hwm := max !hwm (S.unreclaimed s)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (float_of_int !ops /. dt /. 1e6, float_of_int !hwm)

let st_contest (name, mk) =
  (* level the field: earlier contestants leave a large major heap
     behind, and GC pause inheritance would bias the later rows *)
  Gc.compact ();
  let alloc = Memdom.Alloc.create ~sink:Obs.Sink.null ("stall-" ^ name) in
  let (Scheme ((module S), s, teardown)) = mk alloc in
  let tid = Atomicx.Registry.tid () in
  let arena = Memdom.Handle.arena ~hdr:(fun n -> n.s_hdr) () in
  let table =
    Array.init 8 (fun _ ->
        Atomicx.Link.make_in arena
          (Atomicx.Link.Ptr { s_hdr = Memdom.Alloc.hdr alloc () }))
  in
  (* untimed warmup: the reclaimer's spawn and first-touch of the pool
     land outside the measured windows *)
  let warm_end = Unix.gettimeofday () +. 0.02 in
  while Unix.gettimeofday () < warm_end do
    S.begin_op s ~tid;
    S.end_op s ~tid
  done;
  let churn = st_churn (module S) s arena table alloc ~tid in
  let calm = churn ~extra:0 in
  let started = Atomic.make false and release = Atomic.make false in
  let victim =
    Domain.spawn (fun () ->
        Atomicx.Registry.with_tid (fun vtid ->
            let get i =
              match S.get_protected_v s ~tid:vtid ~idx:0 table.(i) with
              | _ -> false
              | exception Reclaim.Neutralize.Neutralized _ -> true
            in
            S.begin_op s ~tid:vtid;
            ignore (get 0);
            Atomic.set started true;
            while not (Atomic.get release) do
              Unix.sleepf 0.0005
            done;
            (* the wake-after-neutralize handshake *)
            let raised = get 1 in
            S.end_op s ~tid:vtid;
            raised))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let stall = churn ~extra:0 in
  Atomic.set release true;
  let victim_raised = Domain.join victim in
  let burst = churn ~extra:3 in
  Array.iter
    (fun slot ->
      let old = Atomicx.Link.exchange_v slot Atomicx.Link.v_null in
      if Atomicx.Link.v_has_target old then
        S.retire s ~tid (Atomicx.Link.v_node arena old))
    table;
  teardown ();
  S.flush s;
  {
    sr_name = name;
    sr_phases = [| calm; stall; burst |];
    sr_victim_raised = victim_raised;
    sr_leaked = Memdom.Alloc.live alloc;
    sr_unreclaimed_after = S.unreclaimed s;
  }

let st_mops i x = fst x.sr_phases.(i)
let st_hwm i x = snd x.sr_phases.(i)

(* The per-contestant table: each column's median over the rounds. *)
let st_columns =
  List.concat_map
    (fun (i, ph) -> [ (ph ^ "_mops", st_mops i); (ph ^ "_hwm", st_hwm i) ])
    [ (0, "calm"); (1, "stall"); (2, "burst") ]

(* [ratios]: per round, ebr+neutralize's calm Mops and stall hwm over
   static EBR's, and its burst hwm over its own stall hwm. *)
type st_result = {
  medians : (string * float list) list;
  ratios : (string * float array) list;
  rows : st_row list;
  battery : Chaos.stall_report;
}

let run_stall_bench () =
  Format.printf
    "@.== Stall remedy A/B: steady -> stall -> burst (%.2fs/phase, %d \
     rounds, order rotated) ==@."
    st_phase_dur st_rounds;
  Atomicx.Registry.reserve 8;
  (* start the global watchdog clock before any contestant runs: the
     neutralizing rounds start it anyway (reclaimer self-clock), so an
     early static round must not get a stamp-free ride the later ones
     don't *)
  ignore (Obs.Watchdog.advance ());
  let n = List.length st_contestants in
  let order r = List.init n (fun i -> List.nth st_contestants ((i + r) mod n)) in
  let rounds = Array.init st_rounds (fun r -> List.map st_contest (order r)) in
  let per name =
    Array.map (fun rows -> List.find (fun x -> x.sr_name = name) rows) rounds
  in
  let median name (_, f) = (spread (Array.map f (per name))).med in
  let medians =
    List.map (fun (n, _) -> (n, List.map (median n) st_columns)) st_contestants
  in
  let neut = per "ebr+neutralize" and ebr = per "ebr-static" in
  let ratio f = Array.map2 (fun x e -> f x /. Float.max 1e-9 (f e)) neut ebr in
  let ratios =
    [
      ("calm_mops", ratio (st_mops 0));
      ("stall_hwm", ratio (st_hwm 1));
      ( "burst_over_stall_hwm",
        Array.map
          (fun x -> if st_hwm 1 x = 0. then 0. else st_hwm 2 x /. st_hwm 1 x)
          neut );
    ]
  in
  let header = List.map (fun (c, _) -> Printf.sprintf " %11s" c) st_columns in
  Format.printf "  %-20s%s  (medians)@." "contestant" (String.concat "" header);
  List.iter
    (fun (name, cols) ->
      Format.printf "  %-20s%s@." name
        (String.concat "" (List.map (Printf.sprintf " %11.3f") cols)))
    medians;
  List.iter
    (fun (name, a) ->
      let s = spread a in
      Format.printf "  ebr+neutralize %-20s min %.3f  median %.3f  max %.3f@."
        name s.lo s.med s.hi)
    ratios;
  let battery = Chaos.run_stall () in
  Format.printf "  stall battery: %a@." Chaos.pp_stall_report battery;
  { medians; ratios; rows = List.concat (Array.to_list rounds); battery }

let battery_json (r : Chaos.stall_report) =
  let open Harness in
  Json.Obj
    [
      ("victim_tid", Json.Int r.st_victim);
      ("ticks", Json.Int r.st_ticks);
      ("stall_reports", Json.Int r.st_stalls);
      ("age_max", Json.Int r.st_age_max);
      ("detected", Json.Bool r.st_detected);
      ("neutralized", Json.Bool r.st_neutralized);
      ("cleared", Json.Bool r.st_cleared);
      ("pinned_freed", Json.Bool r.st_pinned_freed);
      ("victim_raised", Json.Bool r.st_victim_raised);
      ("kills", Json.Int r.st_kills);
      ("force_released", Json.Int r.st_forced);
      ("unreclaimed_after", Json.Int r.st_unreclaimed_after);
      ("leaked", Json.Int r.st_leaked);
      ("ok", Json.Bool (Chaos.stall_ok r));
    ]

(* The stall battery: the stall is reported and then neutralized, the
   victim stops being flagged and the pinned node frees while it is
   parked, the waking victim observes the expiry, both domains killed
   mid-stall are force-released, and nothing leaks. *)
let battery_guards (b : Chaos.stall_report) =
  [
    guard (Chaos.stall_ok b) "stall battery ok (errors [%s])"
      (String.concat "; " b.st_errors);
    guard (b.st_leaked = 0) "stall battery leaked %d = 0" b.st_leaked;
    guard
      (b.st_unreclaimed_after = 0)
      "stall battery unreclaimed after %d = 0" b.st_unreclaimed_after;
    guard (b.st_stalls >= 1) "stall reports %d >= 1" b.st_stalls;
    guard b.st_detected "watchdog flagged the stalled guard (tid %d, age %d)"
      b.st_victim b.st_age_max;
    guard b.st_neutralized "stalled guard neutralized after its Stall report";
    guard b.st_cleared "neutralized victim no longer flagged while parked";
    guard b.st_pinned_freed "pinned node freed while victim parked";
    guard b.st_victim_raised "waking victim observed the expiry";
    guard
      (b.st_forced = b.st_kills && b.st_kills = 2)
      "mid-stall kills force-released %d/%d of 2" b.st_forced b.st_kills;
  ]

let stall_json r =
  let open Harness in
  let spread_json a =
    let s = spread a in
    let rounds = Array.map (fun x -> Json.Float x) a in
    Json.Obj
      [
        ("min", Json.Float s.lo);
        ("median", Json.Float s.med);
        ("max", Json.Float s.hi);
        ("rounds", Json.List (Array.to_list rounds));
      ]
  in
  let columns (name, cols) =
    let col (c, _) v = (c, Json.Float v) in
    (name, Json.Obj (List.map2 col st_columns cols))
  in
  Json.Obj
    [
      ("rounds", Json.Int st_rounds);
      ("medians", Json.Obj (List.map columns r.medians));
      ( "ratios",
        Json.Obj (List.map (fun (n, a) -> (n, spread_json a)) r.ratios) );
      ("battery", battery_json r.battery);
    ]

(* The calm floor leaves margin for scheduler noise on small shared
   boxes (see EXPERIMENTS.md). *)
let stall_guards r =
  let med name = (spread (List.assoc name r.ratios)).med in
  let calm = med "calm_mops" and stall = med "stall_hwm" in
  let burst = med "burst_over_stall_hwm" in
  let mine = List.filter (fun x -> x.sr_name = "ebr+neutralize") r.rows in
  let raised = List.length (List.filter (fun x -> x.sr_victim_raised) mine) in
  let sum f = List.fold_left (fun a x -> a + f x) 0 r.rows in
  let leaked = sum (fun x -> x.sr_leaked)
  and unreclaimed = sum (fun x -> x.sr_unreclaimed_after) in
  [
    guard (calm >= 0.85) "calm median %.2fx static EBR >= 0.85x" calm;
    guard (stall <= 0.5) "stall hwm median %.2fx EBR's <= 0.5x" stall;
    guard (burst <= 0.5) "burst hwm median %.2fx its stall hwm <= 0.5x" burst;
    guard (raised >= 1) "victim raised Neutralized in %d/%d rounds >= 1"
      raised (List.length mine);
    guard (leaked = 0) "leaked %d = 0" leaked;
    guard (unreclaimed = 0) "unreclaimed after flush %d = 0" unreclaimed;
  ]
  @ battery_guards r.battery

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
    Section
      { name = "pack"; run = run_pack; json = pack_json; guards = pack_guards };
    section "metrics" ~key:"metrics" run_metrics metrics_json metrics_guards;
    section "stall" ~key:"stall" run_stall_bench stall_json stall_guards;
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
