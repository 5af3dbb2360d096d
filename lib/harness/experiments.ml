open Atomicx

type params = {
  threads : int list;
  duration : float;
  list_keys : int;
  big_keys : int;
  csv : string option;
}

let default =
  {
    threads = [ 1; 2; 4 ];
    duration = 0.25;
    list_keys = 1_000;
    big_keys = 20_000;
    csv = None;
  }

(* ------------------------------------------------------------------ *)
(* The rows each figure plots, as Ds.Catalog names, in row order.      *)

let queue_figures =
  [
    ( "fig1",
      [ "ms-hp"; "ms-ptb"; "ms-ebr"; "ms-he"; "ms-ptp"; "ms-leak"; "ms-orc";
        "lcrq-hp"; "lcrq-ptp"; "lcrq-orc"; "kp-orc"; "turn-orc" ] );
    ("traced", [ "ms-hp"; "ms-ptb"; "ms-ebr"; "ms-he"; "ms-ptp"; "ms-orc" ]);
  ]

let set_figures =
  [
    ( "fig3",
      [ "michael-hp"; "michael-ptb"; "michael-ebr"; "michael-he";
        "michael-ibr"; "michael-ptp"; "michael-leak"; "michael-orc" ] );
    ("fig5", [ "harris-orc"; "michael-orc"; "hs-orc"; "tbkp-orc" ]);
    ( "fig7",
      [ "nmtree-hp"; "nmtree-ebr"; "nmtree-he"; "nmtree-ptp"; "nmtree-orc";
        "hs-skip-orc"; "crf-skip-orc" ] );
    ( "hashmap",
      [ "splitmap-hp"; "splitmap-ebr"; "splitmap-ptp"; "splitmap-orc" ] );
  ]

(* A set figure's rows, labelled by name or (Fig 3/4, Table 1) by scheme *)
let sets ?(by_scheme = false) fig =
  List.map
    (fun n ->
      let s = Ds.Catalog.set n in
      let module S = (val s) in
      ((if by_scheme then S.scheme_name else n), s))
    (List.assoc fig set_figures)

(* ------------------------------------------------------------------ *)
(* Workload drivers.                                                   *)

let run_queue_pairs (module Q : Ds.Intf.QUEUE with type item = int) ~threads
    ~duration =
  let q = Q.create () in
  let r =
    Runner.run ~threads ~duration
      ~worker:(fun ~i ~tid:_ ~stop ->
        let rng = Rng.create ((i + 1) * 0x9E3779B9) in
        let count = ref 0 in
        while not (stop ()) do
          Q.enqueue q (Rng.int rng 1_000_000);
          ignore (Q.dequeue q);
          count := !count + 2
        done;
        !count)
      ()
  in
  Q.destroy q;
  Q.flush q;
  r.Runner.mops

(* Insert every other key in shuffled order: the NM tree is unbalanced,
   so ordered prefill would degenerate it into a list. *)
let prefill add ~keys =
  let ks = Array.init ((keys + 1) / 2) (fun i -> (2 * i) + 1) in
  let rng = Rng.create 0xC0FFEE in
  for i = Array.length ks - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = ks.(i) in
    ks.(i) <- ks.(j);
    ks.(j) <- tmp
  done;
  Array.iter (fun k -> ignore (add k)) ks

(* [sampler ~live ~unreclaimed] sees the set's live and unreclaimed
   objects every 50 ms while the workers run. *)
let run_set_mix ?sampler (module S : Ds.Intf.SET) ~mix ~threads ~duration
    ~keys =
  let s = S.create () in
  prefill (S.add s) ~keys;
  let live () = Memdom.Alloc.live (S.alloc s) in
  let r =
    Runner.run ~threads ~duration
      ?sampler:
        (Option.map
           (fun f () -> f ~live:(live ()) ~unreclaimed:(S.unreclaimed s))
           sampler)
      ~worker:(fun ~i ~tid:_ ~stop ->
        let rng = Rng.create ((i + 1) * 7919) in
        let count = ref 0 in
        while not (stop ()) do
          let k = 1 + Rng.int rng keys in
          (match Workload.pick rng mix with
          | Workload.Add -> ignore (S.add s k)
          | Workload.Remove -> ignore (S.remove s k)
          | Workload.Lookup -> ignore (S.contains s k));
          incr count
        done;
        !count)
      ()
  in
  let final = (live (), S.unreclaimed s) in
  S.destroy s;
  S.flush s;
  (r.Runner.mops, final)

let sweep rows ~threads ~f =
  List.map
    (fun (label, s) ->
      { Report.label; points = List.map (fun t -> (t, f s t)) threads })
    rows

let maybe_csv p ~title series =
  match p.csv with
  | Some path -> Report.to_csv ~path ~title series
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Figures.                                                            *)

let fig1_queues p =
  let rows =
    List.map
      (fun n -> (n, Ds.Catalog.queue n))
      (List.assoc "fig1" queue_figures)
  in
  let series =
    sweep rows ~threads:p.threads ~f:(fun q t ->
        run_queue_pairs q ~threads:t ~duration:p.duration)
  in
  maybe_csv p ~title:"fig1-queues" series;
  series

let per_mix p rows ~keys =
  List.map
    (fun (mix_name, mix) ->
      let series =
        sweep rows ~threads:p.threads ~f:(fun s t ->
            fst (run_set_mix s ~mix ~threads:t ~duration:p.duration ~keys))
      in
      maybe_csv p ~title:mix_name series;
      (mix_name, series))
    Workload.standard_mixes

let fig3_list_schemes p =
  per_mix p (sets ~by_scheme:true "fig3") ~keys:p.list_keys

let fig5_orc_lists p = per_mix p (sets "fig5") ~keys:p.list_keys
let fig7_trees p = per_mix p (sets "fig7") ~keys:p.big_keys

(* ------------------------------------------------------------------ *)
(* Table 1: measured memory bounds.                                    *)

type bound_row = {
  b_scheme : string;
  b_threads : int;
  b_hps : int;
  b_max_unreclaimed : int;
  b_bound : string;
  b_bound_value : int;
}

let table1_bounds p =
  let threads = List.fold_left max 1 p.threads in
  let hps = 4 (* max_hps used by the list *) in
  let bound_of scheme ~live =
    (* [threads + 2] accounts for the coordinator and registry slack;
       HP/PTB additionally hold up to one scan threshold of retired
       nodes per thread before scanning.  The threshold is the dynamic
       R = 2*H*t of the live thread population ([Registry.active]), so
       the bound uses the population actually observed during the run
       ([live]) — under a shared test process, earlier suites' staged
       or quarantined slots legitimately inflate it. *)
    match scheme with
    | "ptp" | "orc" -> ("O(Ht)", (threads + 2) * (hps + 1))
    | "hp" | "ptb" ->
        ( "O(Ht^2)",
          ((threads + 2) * 2 * hps * live) + ((threads + 2) * (hps + 1)) )
    | "he" | "ibr" -> ("O(#L*H*t^2)", -1)
    | "ebr" | "leak" -> ("unbounded", -1)
    | _ -> ("?", -1)
  in
  List.map
    (fun (name, set) ->
      let peak = ref 0 in
      let live = ref (threads + 2) in
      let sampler ~live:_ ~unreclaimed:u =
        if u > !peak then peak := u;
        let a = Registry.active () in
        if a > !live then live := a
      in
      let _, (_, final_unreclaimed) =
        run_set_mix ~sampler set ~mix:Workload.write_heavy ~threads
          ~duration:p.duration ~keys:64
      in
      (* one more sample after the run: the 50 ms sampler can miss a
         short run entirely, and [leak]'s count only grows, so its final
         value is its true maximum *)
      if final_unreclaimed > !peak then peak := final_unreclaimed;
      let bound, bound_value = bound_of name ~live:!live in
      {
        b_scheme = name;
        b_threads = threads;
        b_hps = hps;
        b_max_unreclaimed = !peak;
        b_bound = bound;
        b_bound_value = bound_value;
      })
    (sets ~by_scheme:true "fig3")

(* ------------------------------------------------------------------ *)
(* Memory footprint: HS-skip vs CRF-skip (§5).                         *)

type mem_row = {
  m_structure : string;
  m_peak_live : int;
  m_final_live : int;
  m_reachable : int;
  m_pinned_live : int;
  m_pinned_after : int;
}

(* The mechanism behind the paper's 19 GB-vs-1 GB observation: a stalled
   reader pins one removed node; in HS-skip that node's frozen forward
   pointer chains to every node removed after it, so the whole removed
   population stays allocated, while CRF-skip's poisoning severs the
   chain at the first hop.  We reproduce it deterministically: pin the
   first node, remove all [n] keys, and measure live objects while the
   pin is held and after it is released. *)
let pinned_chain (module S : Ds.Skiplist_base.S) n =
  let t = S.create () in
  for k = 1 to n do
    ignore (S.add t k)
  done;
  let during = ref 0 in
  S.O.with_guard (S.core t) (fun g ->
      let pin = S.O.ptr g in
      S.O.load g (S.anchor t) pin;
      for k = 1 to n do
        ignore (S.remove t k)
      done;
      during := Memdom.Alloc.live (S.alloc t));
  S.flush t;
  let after = Memdom.Alloc.live (S.alloc t) in
  S.destroy t;
  S.flush t;
  (!during, after)

let mem_footprint p =
  let threads = List.fold_left max 1 p.threads in
  let chain_n = min 5_000 p.big_keys in
  List.map
    (fun (name, pinned) ->
      let module S = (val pinned : Ds.Skiplist_base.S) in
      let peak = ref 0 in
      let sampler ~live ~unreclaimed:_ = if live > !peak then peak := live in
      let _, (final_live, _) =
        run_set_mix ~sampler (module S) ~mix:Workload.write_heavy ~threads
          ~duration:p.duration ~keys:p.big_keys
      in
      let pinned_live, pinned_after = pinned_chain pinned chain_n in
      (* reachable ~ half the key range on a balanced 50/50 mix *)
      {
        m_structure = name;
        m_peak_live = !peak;
        m_final_live = final_live;
        m_reachable = p.big_keys / 2;
        m_pinned_live = pinned_live;
        m_pinned_after = pinned_after;
      })
    [
      ("hs-skip", (module Ds.Catalog.Hs_skip_orc : Ds.Skiplist_base.S));
      ("crf-skip", (module Ds.Catalog.Crf_skip_orc));
    ]

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let ablation_publish p =
  let run label value =
    Orc_core.Ptp.publish_with_exchange := value;
    let points =
      List.map
        (fun t ->
          ( t,
            fst
              (run_set_mix
                 (Ds.Catalog.set "michael-ptp")
                 ~mix:Workload.write_heavy ~threads:t ~duration:p.duration
                 ~keys:p.list_keys) ))
        p.threads
    in
    { Report.label; points }
  in
  let series = [ run "ptp-store" false; run "ptp-exchange" true ] in
  Orc_core.Ptp.publish_with_exchange := false;
  maybe_csv p ~title:"ablation-publish" series;
  series

let ablation_clear_handover p =
  let threads = List.fold_left max 1 p.threads in
  (* Sampled while the workers still hold their tids: once they exit,
     each tid's quarantine cleaner adopts every parked handover whatever
     [clear_handover] says, so a read after the run always finds 0. *)
  let residual value =
    Orc_core.Ptp.clear_handover := value;
    let last = ref 0 in
    ignore
      (run_set_mix
         ~sampler:(fun ~live:_ ~unreclaimed -> last := unreclaimed)
         (Ds.Catalog.set "michael-ptp")
         ~mix:Workload.write_heavy ~threads ~duration:p.duration
         ~keys:p.list_keys);
    !last
  in
  let with_drain = residual true in
  let without_drain = residual false in
  Orc_core.Ptp.clear_handover := true;
  [ ("clear-drains-handover", with_drain); ("no-drain", without_drain) ]

(* Extension (not a paper figure): the split-ordered hash map, Michael's
   list window anchored at lazily initialized bucket dummies — a sanity
   check that the scheme ranking generalizes beyond pointer-chasing
   shapes. *)
let ext_hashmap p =
  let series =
    sweep (sets "hashmap") ~threads:p.threads ~f:(fun s t ->
        fst
          (run_set_mix s ~mix:Workload.write_heavy ~threads:t
             ~duration:p.duration ~keys:p.list_keys))
  in
  maybe_csv p ~title:"ext-hashmap" series;
  series

(* Backend ablation (paper §4: "most of the existing pointer-based
   reclamation schemes can be used by OrcGC"): the same automatic layer
   over the PTP backend vs an HP backend, on a root-table churn.  The
   claim to observe: equivalent behaviour and throughput, but the HP
   backend's peak unreclaimed population is threshold-bound (quadratic
   class) while PTP's stays linear. *)

type backend_row = {
  k_backend : string;
  k_mops : float;
  k_peak_unreclaimed : int;
}

type bnode = { bhdr : Memdom.Hdr.t; bnext : bnode Atomicx.Link.t }

module Bnode = struct
  type t = bnode

  let hdr n = n.bhdr
  let iter_links n f = f n.bnext
end

module Ob_ptp = Orc_core.Orc.Make (Bnode)
module Ob_hp = Orc_core.Orc.Make_hp (Bnode)

let ablation_backend p =
  let threads = List.fold_left max 1 p.threads in
  let churn backend (module O : Orc_core.Orc.S with type node = bnode) =
    let module Link = Atomicx.Link in
    let o = O.create (Memdom.Alloc.create ("orc-" ^ backend ^ "-backend")) in
    let arena = O.arena o in
    let mk_node hdr = { bhdr = hdr; bnext = Link.make_in arena Link.Null } in
    let nslots = 16 in
    let roots = Array.init nslots (fun _ -> Link.make_in arena Link.Null) in
    let peak = ref 0 in
    let r =
      Runner.run ~threads ~duration:p.duration
        ~sampler:(fun () ->
          let u = O.unreclaimed o in
          if u > !peak then peak := u)
        ~worker:(fun ~i ~tid:_ ~stop ->
          let rng = Rng.create ((i + 1) * 6700417) in
          let count = ref 0 in
          while not (stop ()) do
            O.with_guard o (fun g ->
                let hp = O.ptr g in
                let root = roots.(Rng.int rng nslots) in
                ignore (O.alloc_node_into g hp mk_node);
                O.store_v g root (O.Ptr.view hp);
                incr count)
          done;
          !count)
        ()
    in
    O.with_guard o (fun g ->
        Array.iter (fun r -> O.store_v g r Link.v_null) roots);
    O.flush o;
    {
      k_backend = "orc(" ^ backend ^ ")";
      k_mops = r.Runner.mops;
      k_peak_unreclaimed = !peak;
    }
  in
  [ churn "ptp" (module Ob_ptp); churn "hp" (module Ob_hp) ]

(* ------------------------------------------------------------------ *)
(* Allocator modes: System vs the type-stable Pool, at equal op count. *)

type alloc_row = {
  a_workload : string;
  a_mode : string;
  a_ops : int;
  a_mops : float;
  a_hit_rate : float;
  a_hits : int;
  a_misses : int;
  a_remote_frees : int;
  a_refills : int;
  a_minor_words : float;
  a_minor_collections : int;
}

(* Single-domain, fixed-op-count runs on purpose: [Gc.quick_stat] is
   per-domain, so this is the configuration where "minor words / minor
   collections at equal op count" is well-defined.  The counter window
   excludes structure construction and a short warm-up, so Pool numbers
   price steady-state recycling rather than the cold free-list.  [pairs n]
   runs n operation pairs: 1,000 to warm up, then [ops / 2] measured. *)
let alloc_measure ~alloc ~ops pairs =
  pairs 1_000;
  let s0 = Memdom.Stats.take alloc in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  pairs (ops / 2);
  let dt = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let s1 = Memdom.Stats.take alloc in
  let d = Memdom.Stats.diff s0 s1 in
  ( float_of_int ops /. dt /. 1e6,
    d,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.minor_collections - g0.Gc.minor_collections )

let alloc_queue_run (module Q : Ds.Intf.QUEUE with type item = int) ~mode ~ops =
  let t = Q.create ~mode () in
  let r =
    alloc_measure ~alloc:(Q.alloc t) ~ops (fun n ->
        for i = 1 to n do
          Q.enqueue t i;
          ignore (Q.dequeue t)
        done)
  in
  Q.destroy t;
  Q.flush t;
  r

(* Rotating add/remove over a small key range: every add allocates a
   node and every remove retires one, so at steady state the pool
   recycles the entire working set (misses are bounded by the scheme's
   scan-threshold backlog).  The key range is kept small so per-op
   traversal cost doesn't drown the header savings the experiment is
   about. *)
let alloc_list_run (module S : Ds.Intf.SET) ~mode ~ops =
  let t = S.create ~mode () in
  let keys = 16 in
  let r =
    alloc_measure ~alloc:(S.alloc t) ~ops (fun n ->
        for i = 1 to n do
          let k = 1 + (i mod keys) in
          ignore (S.add t k);
          ignore (S.remove t k)
        done)
  in
  S.destroy t;
  S.flush t;
  r

let alloc_modes () =
  let ops = 200_000 in
  let workloads =
    [
      ("msq-ptp", alloc_queue_run (Ds.Catalog.queue "ms-ptp") ~ops);
      ("msq-hp", alloc_queue_run (Ds.Catalog.queue "ms-hp") ~ops);
      ("list-hp", alloc_list_run (Ds.Catalog.set "michael-hp") ~ops);
    ]
  in
  List.concat_map
    (fun (wname, run) ->
      List.map
        (fun (mname, mode) ->
          let mops, d, minor_words, minor_collections = run ~mode in
          {
            a_workload = wname;
            a_mode = mname;
            a_ops = ops;
            a_mops = mops;
            a_hit_rate = Memdom.Stats.hit_rate d;
            a_hits = d.Memdom.Stats.pool_hits;
            a_misses = d.Memdom.Stats.pool_misses;
            a_remote_frees = d.Memdom.Stats.remote_frees;
            a_refills = d.Memdom.Stats.refills;
            a_minor_words = minor_words;
            a_minor_collections = minor_collections;
          })
        [ ("system", Memdom.Alloc.System); ("pool", Memdom.Alloc.Pool) ])
    workloads

(* ------------------------------------------------------------------ *)
(* Traced runs (observability): the same queue pairs workload with an  *)
(* active event sink installed, so the trace/histogram exporters have  *)
(* real lifecycle data per scheme.                                     *)

type traced_run = { t_name : string; t_mops : float; t_sink : Obs.Sink.t }

let traced_queue_runs p =
  let threads = List.fold_left max 1 p.threads in
  List.map
    (fun name ->
      (* The sink must be ambient while the queue (and its internal
         allocator + scheme) is constructed: [run_queue_pairs] builds
         the structure inside, on this thread, so rebinding the default
         here is race-free. *)
      let sink = Obs.Sink.make ~capacity:(1 lsl 15) () in
      let mops =
        Obs.Sink.with_default sink (fun () ->
            run_queue_pairs (Ds.Catalog.queue name) ~threads
              ~duration:p.duration)
      in
      { t_name = name; t_mops = mops; t_sink = sink })
    (List.assoc "traced" queue_figures)

(* Null-sink tracing overhead on the ms-orc micro: the hooks compile to
   one branch when the sink is Null, so these two numbers should agree
   to within noise; the active-sink number prices full event capture. *)
let tracing_overhead p =
  let threads = List.fold_left max 1 p.threads in
  let q = Ds.Catalog.queue "ms-orc" in
  let run () = run_queue_pairs q ~threads ~duration:p.duration in
  ignore (run ()) (* warm-up *);
  let null_mops = run () in
  let sink = Obs.Sink.make () in
  let active_mops = Obs.Sink.with_default sink (fun () -> run ()) in
  (null_mops, active_mops)

(* ------------------------------------------------------------------ *)
(* The §5 printer, shared by bin/main.exe and the bench's default run. *)

type experiment =
  [ `Fig1 | `Fig3 | `Fig5 | `Fig7 | `Table1 | `Mem | `Hashmap | `Ablation ]

let all_experiments =
  [ `Fig1; `Fig3; `Fig5; `Fig7; `Table1; `Mem; `Ablation; `Hashmap ]

let print_mix_tables title tables =
  List.iter
    (fun (mix, series) ->
      Report.print_table ~title:(title ^ " / " ^ mix) series)
    tables

let mixes_json tables =
  Json.Obj (List.map (fun (mix, series) -> (mix, Json.of_series series)) tables)

let run_experiment (e : experiment) p =
  match e with
  | `Fig1 ->
      let s = fig1_queues p in
      Report.print_table ~title:"Fig 1/2: queues, enq/deq pairs" s;
      Report.print_table ~title:"Fig 1/2 normalized (vs ms-hp)"
        ~unit_label:"x vs ms-hp"
        (Report.normalize ~base_label:"ms-hp" s);
      [ ("fig1_queues", Json.of_series s) ]
  | `Fig3 ->
      let t = fig3_list_schemes p in
      print_mix_tables "Fig 3/4: Michael-Harris list, schemes" t;
      [ ("fig3_list_schemes", mixes_json t) ]
  | `Fig5 ->
      let t = fig5_orc_lists p in
      print_mix_tables "Fig 5/6: lists with OrcGC" t;
      [ ("fig5_orc_lists", mixes_json t) ]
  | `Fig7 ->
      let t = fig7_trees p in
      print_mix_tables "Fig 7/8: tree and skip lists" t;
      [ ("fig7_trees", mixes_json t) ]
  | `Table1 ->
      let rows = table1_bounds p in
      Format.printf "@.== Table 1 (measured): peak unreclaimed objects ==@.";
      Format.printf "  %-10s %8s %6s %16s %12s %12s@." "scheme" "threads" "H"
        "peak-unreclaimed" "bound" "bound-value";
      List.iter
        (fun r ->
          Format.printf "  %-10s %8d %6d %16d %12s %12s@." r.b_scheme
            r.b_threads r.b_hps r.b_max_unreclaimed r.b_bound
            (if r.b_bound_value < 0 then "-"
             else string_of_int r.b_bound_value))
        rows;
      [
        ( "table1_bounds",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("scheme", Json.Str r.b_scheme);
                     ("threads", Json.Int r.b_threads);
                     ("hps", Json.Int r.b_hps);
                     ("peak_unreclaimed", Json.Int r.b_max_unreclaimed);
                     ("bound", Json.Str r.b_bound);
                     ( "bound_value",
                       if r.b_bound_value < 0 then Json.Null
                       else Json.Int r.b_bound_value );
                   ])
               rows) );
      ]
  | `Mem ->
      let rows = mem_footprint p in
      Format.printf "@.== Memory footprint: HS-skip vs CRF-skip ==@.";
      Format.printf "  %-12s %12s %12s %12s %14s %14s@." "structure"
        "peak-live" "final-live" "~reachable" "pinned-chain" "after-unpin";
      List.iter
        (fun m ->
          Format.printf "  %-12s %12d %12d %12d %14d %14d@." m.m_structure
            m.m_peak_live m.m_final_live m.m_reachable m.m_pinned_live
            m.m_pinned_after)
        rows;
      [
        ( "mem_footprint",
          Json.List
            (List.map
               (fun m ->
                 Json.Obj
                   [
                     ("structure", Json.Str m.m_structure);
                     ("peak_live", Json.Int m.m_peak_live);
                     ("final_live", Json.Int m.m_final_live);
                     ("reachable", Json.Int m.m_reachable);
                     ("pinned_live", Json.Int m.m_pinned_live);
                     ("pinned_after", Json.Int m.m_pinned_after);
                   ])
               rows) );
      ]
  | `Hashmap ->
      let s = ext_hashmap p in
      Report.print_table
        ~title:"Extension: split-ordered hash map (write-heavy)" s;
      [ ("ext_hashmap", Json.of_series s) ]
  | `Ablation ->
      let publish = ablation_publish p in
      Report.print_table ~title:"Ablation: PTP publish instruction" publish;
      let backend = ablation_backend p in
      Format.printf "@.== Ablation: OrcGC protection backend ==@.";
      List.iter
        (fun r ->
          Format.printf "  %-10s %8.3f Mops/s   peak-unreclaimed=%d@."
            r.k_backend r.k_mops r.k_peak_unreclaimed)
        backend;
      let clear = ablation_clear_handover p in
      Format.printf "@.== Ablation: handover drain on clear ==@.";
      List.iter
        (fun (label, residual) ->
          Format.printf "  %-24s residual unreclaimed = %d@." label residual)
        clear;
      [
        ("ablation_publish", Json.of_series publish);
        ( "ablation_backend",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("backend", Json.Str r.k_backend);
                     ("mops", Json.Float r.k_mops);
                     ("peak_unreclaimed", Json.Int r.k_peak_unreclaimed);
                   ])
               backend) );
        ( "ablation_clear_handover",
          Json.Obj (List.map (fun (label, n) -> (label, Json.Int n)) clear) );
      ]
