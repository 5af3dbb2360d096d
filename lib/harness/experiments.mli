(** The paper's evaluation (§5), experiment by experiment.

    Every table and figure of the paper has a generator here; the
    [bench/main.exe] harness runs them all with small defaults and
    [bin/main.exe] exposes each with tunable parameters.  See DESIGN.md
    §3 for the experiment index and EXPERIMENTS.md for measured
    results. *)

type params = {
  threads : int list;  (** thread counts to sweep *)
  duration : float;  (** seconds per data point *)
  list_keys : int;  (** key range for list sets (paper: 10³) *)
  big_keys : int;  (** key range for trees/skip lists (paper: 10⁶) *)
  csv : string option;  (** also append results to this CSV file *)
}

val default : params

val queue_figures : (string * string list) list
val set_figures : (string * string list) list
(** Each figure with the {!Ds.Catalog} entries it plots, in row order:
    queues for ["fig1"] and ["traced"] ({!traced_queue_runs}); sets and
    maps for ["fig3"] (also Table 1's rows; both label a row by its
    [scheme_name]), ["fig5"], ["fig7"] and ["hashmap"]. *)

val fig1_queues : params -> Report.series list
(** Figures 1/2: enqueue/dequeue pairs on each queue × scheme
    combination of the ["fig1"] rows.  Raw Mops/s; normalize with
    {!Report.normalize} for the paper's presentation. *)

val fig3_list_schemes : params -> (string * Report.series list) list
(** Figures 3/4: Michael-Harris list, 10³ keys, one table per workload
    mix (50i-50r, 5i-5r-90l, 100l), series = reclamation schemes
    including OrcGC and the no-reclamation ceiling. *)

val fig5_orc_lists : params -> (string * Report.series list) list
(** Figures 5/6: the four linked lists under OrcGC only — including
    Harris and HS, for which no manual scheme is applicable. *)

val fig7_trees : params -> (string * Report.series list) list
(** Figures 7/8: NM-tree under manual schemes + OrcGC, and the two skip
    lists, on the large key range. *)

type bound_row = {
  b_scheme : string;
  b_threads : int;
  b_hps : int;
  b_max_unreclaimed : int;
  b_bound : string;  (** the paper's Table 1 bound formula *)
  b_bound_value : int;  (** the formula evaluated, -1 if unbounded *)
}

val table1_bounds : params -> bound_row list
(** Table 1 (the memory-bound column, measured): drive a write-heavy
    list workload per scheme while sampling the peak number of retired
    but unreclaimed objects, against each scheme's theoretical bound. *)

type mem_row = {
  m_structure : string;
  m_peak_live : int;  (** peak live objects during concurrent churn *)
  m_final_live : int;
  m_reachable : int;
  m_pinned_live : int;
      (** live objects while one stalled reader pins the head of a fully
          removed chain — the paper's footprint mechanism: key-bounded
          for HS-skip, O(1) for CRF-skip *)
  m_pinned_after : int;  (** live objects once the pin is released *)
}

val pinned_chain : (module Ds.Skiplist_base.S) -> int -> int * int
(** [pinned_chain (module S) n]: fill a fresh [S] with keys [1..n], pin
    the first node from the level-0 anchor, remove every key, and
    return the live objects while the pin is held and after it is
    released (the {!mem_row} pinned columns). *)

val mem_footprint : params -> mem_row list
(** §5 memory-footprint claim (HS-skip ~19 GB vs CRF-skip <1 GB on the
    authors' testbed): identical churn on both skip lists, sampling live
    objects; the shape to reproduce is HS ≫ CRF. *)

val ablation_publish : params -> Report.series list
(** §5 ablation: PTP hazard publication via [Atomic.exchange] vs
    [Atomic.set] — the instruction choice the paper blames for the
    AMD/Intel gap. *)

val ablation_clear_handover : params -> (string * int) list
(** Ablation of Algorithm 2 lines 16–19 (the "optional" handover drain
    on clear): residual unreclaimed objects after a run, with the drain
    enabled vs disabled. *)

val ext_hashmap : params -> Report.series list
(** Extension beyond the paper's figures: the split-ordered hash map
    ({!Ds.Split_map}, {!Ds.Orc_split_map}; write-heavy mix) across HP,
    EBR, PTP and OrcGC. *)

type backend_row = {
  k_backend : string;
  k_mops : float;
  k_peak_unreclaimed : int;
}

val ablation_backend : params -> backend_row list
(** §4's pluggable-backend remark, measured: the automatic layer over
    the PTP backend vs an HP backend — similar throughput, different
    unreclaimed-memory class. *)

type alloc_row = {
  a_workload : string;  (** msq-ptp | msq-hp | list-hp *)
  a_mode : string;  (** "system" or "pool" *)
  a_ops : int;  (** operations in the measured window *)
  a_mops : float;
  a_hit_rate : float;  (** pool hit rate over the window (0 for system) *)
  a_hits : int;
  a_misses : int;
  a_remote_frees : int;
  a_refills : int;
  a_minor_words : float;  (** minor-heap words allocated in the window *)
  a_minor_collections : int;  (** minor GCs triggered in the window *)
}

val alloc_modes : unit -> alloc_row list
(** System vs type-stable Pool allocator on steady-state queue and list
    workloads at equal op count (200k each), single
    domain so the [Gc.quick_stat] deltas are well-defined.  The window
    excludes construction and a warm-up, so the pool numbers price
    steady-state recycling; expected shape: pool hit rate ≥ 0.9 and
    strictly fewer minor words / collections than system. *)

type traced_run = {
  t_name : string;
  t_mops : float;
  t_sink : Obs.Sink.t;  (** holds the event rings and latency histograms *)
}

val traced_queue_runs : params -> traced_run list
(** Enqueue/dequeue pairs on the MS queue under each scheme with an
    active {!Obs.Sink} installed: the sink collects lifecycle events
    (per-thread rings of 2{^15} entries) and retire→free / guard /
    scan latency histograms.  Feed the sinks to {!Obs.Trace.combined}
    for a Chrome-trace file and to [Obs.Sink.retire_free_hist] for the
    per-scheme latency quantiles in BENCH_orc.json. *)

val tracing_overhead : params -> float * float
(** [(null_mops, active_mops)] on the ms-orc pairs micro: throughput
    with the compiled-in hooks left disabled (null sink — the default)
    vs with full event capture.  The null number prices the
    instrumentation itself and belongs in EXPERIMENTS.md. *)

(** {1 The §5 printer} *)

type experiment =
  [ `Fig1 | `Fig3 | `Fig5 | `Fig7 | `Table1 | `Mem | `Hashmap | `Ablation ]

val all_experiments : experiment list
(** Every experiment, in the order [bin/main.exe all] and the bench's
    default run print them. *)

val run_experiment : experiment -> params -> (string * Json.t) list
(** Run one experiment, print its tables to stdout, and return its
    results as top-level BENCH_orc.json entries: one per experiment
    (["fig1_queues"], ["table1_bounds"], …), three for the ablation
    (["ablation_publish"], ["ablation_backend"],
    ["ablation_clear_handover"]). *)
