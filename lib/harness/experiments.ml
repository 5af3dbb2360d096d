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
(* Instantiations of every structure x scheme used by the evaluation.  *)

module Int_item = struct
  type t = int
end

module Msq_hp = Ds.Ms_queue.Make (Int_item) (Reclaim.Hp.Make)
module Msq_ptb = Ds.Ms_queue.Make (Int_item) (Reclaim.Ptb.Make)
module Msq_ebr = Ds.Ms_queue.Make (Int_item) (Reclaim.Ebr.Make)
module Msq_he = Ds.Ms_queue.Make (Int_item) (Reclaim.He.Make)
module Msq_ptp = Ds.Ms_queue.Make (Int_item) (Orc_core.Ptp.Make)
module Msq_leak = Ds.Ms_queue.Make (Int_item) (Reclaim.None_scheme.Leak)
module Msq_orc = Ds.Orc_ms_queue.Make (Int_item)
module Lcrq_hp = Ds.Lcrq.Make (Int_item) (Reclaim.Hp.Make)
module Lcrq_ptp = Ds.Lcrq.Make (Int_item) (Orc_core.Ptp.Make)
module Lcrq_orc = Ds.Orc_lcrq.Make (Int_item)
module Kpq_orc = Ds.Orc_kp_queue.Make (Int_item)
module Turn_orc = Ds.Orc_turn_queue.Make (Int_item)
module Ml_hp = Ds.Michael_list.Make (Reclaim.Hp.Make)
module Ml_ptb = Ds.Michael_list.Make (Reclaim.Ptb.Make)
module Ml_ebr = Ds.Michael_list.Make (Reclaim.Ebr.Make)
module Ml_he = Ds.Michael_list.Make (Reclaim.He.Make)
module Ml_ibr = Ds.Michael_list.Make (Reclaim.Ibr.Make)
module Ml_ptp = Ds.Michael_list.Make (Orc_core.Ptp.Make)
module Ml_leak = Ds.Michael_list.Make (Reclaim.None_scheme.Leak)
module Ml_orc = Ds.Orc_michael_list.Make ()
module Harris_orc = Ds.Orc_harris_list.Make ()
module Hsl_orc = Ds.Orc_hs_list.Make ()
module Tbkp_orc = Ds.Orc_tbkp_list.Make ()
module Nm_hp = Ds.Nm_tree.Make (Reclaim.Hp.Make)
module Nm_ebr = Ds.Nm_tree.Make (Reclaim.Ebr.Make)
module Nm_he = Ds.Nm_tree.Make (Reclaim.He.Make)
module Nm_ptp = Ds.Nm_tree.Make (Orc_core.Ptp.Make)
module Nm_orc = Ds.Orc_nm_tree.Make ()
module Skip_hs = Ds.Orc_hs_skiplist.Make ()
module Skip_crf = Ds.Orc_crf_skiplist.Make ()
module Sm_hp = Ds.Split_map.Make (Reclaim.Hp.Make)
module Sm_ebr = Ds.Split_map.Make (Reclaim.Ebr.Make)
module Sm_ptp = Ds.Split_map.Make (Orc_core.Ptp.Make)
module Sm_orc = Ds.Orc_split_map.Make ()

(* ------------------------------------------------------------------ *)
(* First-class adapters so experiments can iterate heterogeneously.    *)

type queue_ops = {
  q_name : string;
  q_enq : int -> unit;
  q_deq : unit -> int option;
  q_destroy : unit -> unit;
  q_unreclaimed : unit -> int;
  q_live : unit -> int;
}

let make_queue name (module Q : Ds.Intf.QUEUE with type item = int) () =
  let t = Q.create () in
  {
    q_name = name;
    q_enq = Q.enqueue t;
    q_deq = (fun () -> Q.dequeue t);
    q_destroy =
      (fun () ->
        Q.destroy t;
        Q.flush t);
    q_unreclaimed = (fun () -> Q.unreclaimed t);
    q_live = (fun () -> Memdom.Alloc.live (Q.alloc t));
  }

type set_ops = {
  s_name : string;
  s_add : int -> bool;
  s_remove : int -> bool;
  s_contains : int -> bool;
  s_destroy : unit -> unit;
  s_unreclaimed : unit -> int;
  s_live : unit -> int;
}

let make_set name (module S : Ds.Intf.SET) () =
  let t = S.create () in
  {
    s_name = name;
    s_add = S.add t;
    s_remove = S.remove t;
    s_contains = S.contains t;
    s_destroy =
      (fun () ->
        S.destroy t;
        S.flush t);
    s_unreclaimed = (fun () -> S.unreclaimed t);
    s_live = (fun () -> Memdom.Alloc.live (S.alloc t));
  }

let queue_factories =
  [
    make_queue "ms-hp" (module Msq_hp);
    make_queue "ms-ptb" (module Msq_ptb);
    make_queue "ms-ebr" (module Msq_ebr);
    make_queue "ms-he" (module Msq_he);
    make_queue "ms-ptp" (module Msq_ptp);
    make_queue "ms-leak" (module Msq_leak);
    make_queue "ms-orc" (module Msq_orc);
    make_queue "lcrq-hp" (module Lcrq_hp);
    make_queue "lcrq-ptp" (module Lcrq_ptp);
    make_queue "lcrq-orc" (module Lcrq_orc);
    make_queue "kp-orc" (module Kpq_orc);
    make_queue "turn-orc" (module Turn_orc);
  ]

let michael_factories =
  [
    make_set "hp" (module Ml_hp);
    make_set "ptb" (module Ml_ptb);
    make_set "ebr" (module Ml_ebr);
    make_set "he" (module Ml_he);
    make_set "ibr" (module Ml_ibr);
    make_set "ptp" (module Ml_ptp);
    make_set "leak" (module Ml_leak);
    make_set "orc" (module Ml_orc);
  ]

let orc_list_factories =
  [
    make_set "harris-orc" (module Harris_orc);
    make_set "michael-orc" (module Ml_orc);
    make_set "hs-orc" (module Hsl_orc);
    make_set "tbkp-orc" (module Tbkp_orc);
  ]

let tree_factories =
  [
    make_set "nmtree-hp" (module Nm_hp);
    make_set "nmtree-ebr" (module Nm_ebr);
    make_set "nmtree-he" (module Nm_he);
    make_set "nmtree-ptp" (module Nm_ptp);
    make_set "nmtree-orc" (module Nm_orc);
    make_set "hs-skip-orc" (module Skip_hs);
    make_set "crf-skip-orc" (module Skip_crf);
  ]

(* ------------------------------------------------------------------ *)
(* Workload drivers.                                                   *)

let run_queue_pairs mk ~threads ~duration =
  let q = mk () in
  let r =
    Runner.run ~threads ~duration
      ~worker:(fun ~i ~tid:_ ~stop ->
        let rng = Rng.create ((i + 1) * 0x9E3779B9) in
        let count = ref 0 in
        while not (stop ()) do
          q.q_enq (Rng.int rng 1_000_000);
          ignore (q.q_deq ());
          count := !count + 2
        done;
        !count)
      ()
  in
  q.q_destroy ();
  r.Runner.mops

(* Insert every other key in shuffled order: the NM tree is unbalanced,
   so ordered prefill would degenerate it into a list. *)
let prefill s ~keys =
  let ks = Array.init ((keys + 1) / 2) (fun i -> (2 * i) + 1) in
  let rng = Rng.create 0xC0FFEE in
  for i = Array.length ks - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = ks.(i) in
    ks.(i) <- ks.(j);
    ks.(j) <- tmp
  done;
  Array.iter (fun k -> ignore (s.s_add k)) ks

let run_set_mix ?sampler mk ~mix ~threads ~duration ~keys =
  let s = mk () in
  prefill s ~keys;
  let r =
    Runner.run ~threads ~duration
      ?sampler:(Option.map (fun f () -> f s) sampler)
      ~worker:(fun ~i ~tid:_ ~stop ->
        let rng = Rng.create ((i + 1) * 7919) in
        let count = ref 0 in
        while not (stop ()) do
          let k = 1 + Rng.int rng keys in
          (match Workload.pick rng mix with
          | Workload.Add -> ignore (s.s_add k)
          | Workload.Remove -> ignore (s.s_remove k)
          | Workload.Lookup -> ignore (s.s_contains k));
          incr count
        done;
        !count)
      ()
  in
  let final = (s.s_live (), s.s_unreclaimed ()) in
  s.s_destroy ();
  (r.Runner.mops, final)

let sweep factories ~threads ~f =
  List.map
    (fun mk ->
      let name = (mk ()).s_name in
      { Report.label = name; points = List.map (fun t -> (t, f mk t)) threads })
    factories

let maybe_csv p ~title series =
  match p.csv with
  | Some path -> Report.to_csv ~path ~title series
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Figures.                                                            *)

let fig1_queues p =
  let series =
    List.map
      (fun mk ->
        let name = (mk ()).q_name in
        {
          Report.label = name;
          points =
            List.map
              (fun t -> (t, run_queue_pairs mk ~threads:t ~duration:p.duration))
              p.threads;
        })
      queue_factories
  in
  maybe_csv p ~title:"fig1-queues" series;
  series

let per_mix p factories ~keys =
  List.map
    (fun (mix_name, mix) ->
      let series =
        sweep factories ~threads:p.threads ~f:(fun mk t ->
            fst (run_set_mix mk ~mix ~threads:t ~duration:p.duration ~keys))
      in
      maybe_csv p ~title:mix_name series;
      (mix_name, series))
    Workload.standard_mixes

let fig3_list_schemes p = per_mix p michael_factories ~keys:p.list_keys
let fig5_orc_lists p = per_mix p orc_list_factories ~keys:p.list_keys
let fig7_trees p = per_mix p tree_factories ~keys:p.big_keys

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
    (fun mk ->
      let name = (mk ()).s_name in
      let peak = ref 0 in
      let live = ref (threads + 2) in
      let sampler s =
        let u = s.s_unreclaimed () in
        if u > !peak then peak := u;
        let a = Registry.active () in
        if a > !live then live := a
      in
      let _, (_, final_unreclaimed) =
        run_set_mix ~sampler mk ~mix:Workload.write_heavy ~threads
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
    michael_factories

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
let pinned_chain_hs n =
  let module S = Skip_hs in
  let t = S.create () in
  for k = 1 to n do
    ignore (S.add t k)
  done;
  let during = ref 0 in
  S.O.with_guard t.S.orc (fun g ->
      let pin = S.O.ptr g in
      S.O.load g t.S.head.S.next.(0) pin;
      for k = 1 to n do
        ignore (S.remove t k)
      done;
      during := Memdom.Alloc.live (S.alloc t));
  S.flush t;
  let after = Memdom.Alloc.live (S.alloc t) in
  S.destroy t;
  S.flush t;
  (!during, after)

let pinned_chain_crf n =
  let module S = Skip_crf in
  let t = S.create () in
  for k = 1 to n do
    ignore (S.add t k)
  done;
  let during = ref 0 in
  S.O.with_guard t.S.orc (fun g ->
      let pin = S.O.ptr g in
      S.O.load g t.S.head.S.next.(0) pin;
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
    (fun (mk, pinned) ->
      let name = (mk ()).s_name in
      let peak = ref 0 in
      let sampler s =
        let l = s.s_live () in
        if l > !peak then peak := l
      in
      let _, (final_live, _) =
        run_set_mix ~sampler mk ~mix:Workload.write_heavy ~threads
          ~duration:p.duration ~keys:p.big_keys
      in
      let pinned_live, pinned_after = pinned chain_n in
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
      (make_set "hs-skip" (module Skip_hs), pinned_chain_hs);
      (make_set "crf-skip" (module Skip_crf), pinned_chain_crf);
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
                 (make_set "ptp" (module Ml_ptp))
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
         ~sampler:(fun s -> last := s.s_unreclaimed ())
         (make_set "ptp" (module Ml_ptp))
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
  let factories =
    [
      make_set "splitmap-hp" (module Sm_hp);
      make_set "splitmap-ebr" (module Sm_ebr);
      make_set "splitmap-ptp" (module Sm_ptp);
      make_set "splitmap-orc" (module Sm_orc);
    ]
  in
  let series =
    sweep factories ~threads:p.threads ~f:(fun mk t ->
        fst
          (run_set_mix mk ~mix:Workload.write_heavy ~threads:t
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
   price steady-state recycling rather than the cold free-list. *)
let alloc_measure ~warm ~window ~alloc ~ops =
  warm ();
  let s0 = Memdom.Stats.take alloc in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  window ();
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
  let pairs n =
    for i = 1 to n do
      Q.enqueue t i;
      ignore (Q.dequeue t)
    done
  in
  let r =
    alloc_measure
      ~warm:(fun () -> pairs 1_000)
      ~window:(fun () -> pairs (ops / 2))
      ~alloc:(Q.alloc t) ~ops
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
  let churn n =
    for i = 1 to n do
      let k = 1 + (i mod keys) in
      ignore (S.add t k);
      ignore (S.remove t k)
    done
  in
  let r =
    alloc_measure
      ~warm:(fun () -> churn 1_000)
      ~window:(fun () -> churn (ops / 2))
      ~alloc:(S.alloc t) ~ops
  in
  S.destroy t;
  S.flush t;
  r

let alloc_modes ?(ops = 200_000) (_ : params) =
  let workloads =
    [
      ("msq-ptp", fun ~mode -> alloc_queue_run (module Msq_ptp) ~mode ~ops);
      ("msq-hp", fun ~mode -> alloc_queue_run (module Msq_hp) ~mode ~ops);
      ("list-hp", fun ~mode -> alloc_list_run (module Ml_hp) ~mode ~ops);
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

let traced_scheme_names =
  [ "ms-hp"; "ms-ptb"; "ms-ebr"; "ms-he"; "ms-ptp"; "ms-orc" ]

let traced_queue_runs ?(capacity = 1 lsl 15) p =
  let threads = List.fold_left max 1 p.threads in
  List.filter_map
    (fun mk ->
      let name = (mk ()).q_name in
      if not (List.mem name traced_scheme_names) then None
      else
        (* The sink must be ambient while the queue (and its internal
           allocator + scheme) is constructed: [run_queue_pairs] builds
           the structure inside, on this thread, so rebinding the
           default here is race-free. *)
        let sink = Obs.Sink.make ~capacity () in
        let mops =
          Obs.Sink.with_default sink (fun () ->
              run_queue_pairs mk ~threads ~duration:p.duration)
        in
        Some { t_name = name; t_mops = mops; t_sink = sink })
    queue_factories

(* Null-sink tracing overhead on the ms-orc micro: the hooks compile to
   one branch when the sink is Null, so these two numbers should agree
   to within noise; the active-sink number prices full event capture. *)
let tracing_overhead p =
  let threads = List.fold_left max 1 p.threads in
  let mk = make_queue "ms-orc" (module Msq_orc) in
  let run () = run_queue_pairs mk ~threads ~duration:p.duration in
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
