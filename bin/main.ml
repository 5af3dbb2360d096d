(* orcgc-bench: run individual paper experiments with tunable parameters.

     orcgc-bench fig1 --threads 1,2,4,8 --duration 1.0
     orcgc-bench fig7 --big-keys 1000000 --csv results.csv
     orcgc-bench all

   See DESIGN.md §3 for the experiment index. *)

open Cmdliner

let print_mix_tables title tables =
  List.iter
    (fun (mix, series) ->
      Harness.Report.print_table ~title:(title ^ " / " ^ mix) series)
    tables

type experiment =
  [ `Fig1 | `Fig3 | `Fig5 | `Fig7 | `Table1 | `Mem | `Hashmap | `Ablation ]

let run_experiment (e : experiment) (p : Harness.Experiments.params) =
  let open Harness in
  match e with
  | `Fig1 ->
      let s = Experiments.fig1_queues p in
      Report.print_table ~title:"Fig 1/2: queues, enq/deq pairs" s;
      Report.print_table ~title:"Fig 1/2 normalized (vs ms-hp)"
        ~unit_label:"x vs ms-hp"
        (Report.normalize ~base_label:"ms-hp" s)
  | `Fig3 ->
      print_mix_tables "Fig 3/4: Michael-Harris list, schemes"
        (Experiments.fig3_list_schemes p)
  | `Fig5 ->
      print_mix_tables "Fig 5/6: lists with OrcGC"
        (Experiments.fig5_orc_lists p)
  | `Fig7 ->
      print_mix_tables "Fig 7/8: tree and skip lists"
        (Experiments.fig7_trees p)
  | `Table1 ->
      Format.printf "@.== Table 1 (measured): peak unreclaimed objects ==@.";
      Format.printf "  %-10s %8s %6s %16s %12s %12s@." "scheme" "threads" "H"
        "peak-unreclaimed" "bound" "bound-value";
      List.iter
        (fun r ->
          Format.printf "  %-10s %8d %6d %16d %12s %12s@."
            r.Experiments.b_scheme r.b_threads r.b_hps r.b_max_unreclaimed
            r.b_bound
            (if r.b_bound_value < 0 then "-"
             else string_of_int r.b_bound_value))
        (Experiments.table1_bounds p)
  | `Mem ->
      Format.printf "@.== Memory footprint: HS-skip vs CRF-skip ==@.";
      Format.printf "  %-12s %12s %12s %12s %14s %14s@." "structure"
        "peak-live" "final-live" "~reachable" "pinned-chain" "after-unpin";
      List.iter
        (fun m ->
          Format.printf "  %-12s %12d %12d %12d %14d %14d@."
            m.Experiments.m_structure m.m_peak_live m.m_final_live
            m.m_reachable m.m_pinned_live m.m_pinned_after)
        (Experiments.mem_footprint p)
  | `Hashmap ->
      Report.print_table ~title:"Extension: split-ordered hash map (write-heavy)"
        (Experiments.ext_hashmap p)
  | `Ablation ->
      Report.print_table ~title:"Ablation: PTP publish instruction"
        (Experiments.ablation_publish p);
      Format.printf "@.== Ablation: OrcGC protection backend ==@.";
      List.iter
        (fun r ->
          Format.printf "  %-10s %8.3f Mops/s   peak-unreclaimed=%d@."
            r.Experiments.k_backend r.k_mops r.k_peak_unreclaimed)
        (Experiments.ablation_backend p);
      Format.printf "@.== Ablation: handover drain on clear ==@.";
      List.iter
        (fun (label, residual) ->
          Format.printf "  %-24s residual unreclaimed = %d@." label residual)
        (Experiments.ablation_clear_handover p)

let all_experiments =
  [ `Fig1; `Fig3; `Fig5; `Fig7; `Table1; `Mem; `Ablation; `Hashmap ]

(* An unknown name is a usage error: cmdliner prints the usage and the
   process exits non-zero. *)
let experiments =
  [
    ("all", `All);
    ("fig1", `Fig1);
    ("fig2", `Fig1);
    ("fig3", `Fig3);
    ("fig4", `Fig3);
    ("fig5", `Fig5);
    ("fig6", `Fig5);
    ("fig7", `Fig7);
    ("fig8", `Fig7);
    ("table1", `Table1);
    ("bounds", `Table1);
    ("mem", `Mem);
    ("hashmap", `Hashmap);
    ("ablation", `Ablation);
  ]

let exp_arg =
  let doc =
    "Experiment to run: fig1/fig2 (queues), fig3/fig4 (list x schemes), \
     fig5/fig6 (OrcGC lists), fig7/fig8 (tree and skip lists), \
     table1/bounds (memory bounds), mem (footprint), hashmap, ablation, \
     or all."
  in
  Arg.(
    value
    & pos 0 (enum (List.map (fun (n, e) -> (n, (n, e))) experiments)) ("all", `All)
    & info [] ~docv:"EXPERIMENT" ~doc)

let threads_arg =
  let doc = "Comma-separated thread counts to sweep." in
  Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "threads"; "t" ] ~doc)

let duration_arg =
  let doc = "Seconds per data point." in
  Arg.(value & opt float 0.5 & info [ "duration"; "d" ] ~doc)

let list_keys_arg =
  let doc = "Key range for the linked-list sets (paper: 1000)." in
  Arg.(value & opt int 1_000 & info [ "list-keys" ] ~doc)

let big_keys_arg =
  let doc = "Key range for tree/skip-list sets (paper: 1000000)." in
  Arg.(value & opt int 100_000 & info [ "big-keys" ] ~doc)

let csv_arg =
  let doc = "Append results as CSV rows to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let main (name, exp) threads duration list_keys big_keys csv =
  let p =
    { Harness.Experiments.threads; duration; list_keys; big_keys; csv }
  in
  Format.printf "orcgc-bench: %s (threads=%s, %.2fs/point)@." name
    (String.concat "," (List.map string_of_int threads))
    duration;
  match exp with
  | `All -> List.iter (fun e -> run_experiment e p) all_experiments
  | #experiment as e -> run_experiment e p

let cmd =
  let doc = "Reproduce the OrcGC paper's evaluation (PPoPP '21)" in
  let info = Cmd.info "orcgc-bench" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const main $ exp_arg $ threads_arg $ duration_arg $ list_keys_arg
      $ big_keys_arg $ csv_arg)

let () = exit (Cmd.eval cmd)
