(* orcgc-bench: run individual paper experiments with tunable parameters.

     orcgc-bench fig1 --threads 1,2,4,8 --duration 1.0
     orcgc-bench fig7 --big-keys 1000000 --csv results.csv
     orcgc-bench all

   See DESIGN.md §3 for the experiment index. *)

open Cmdliner

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
  let run e = ignore (Harness.Experiments.run_experiment e p) in
  match exp with
  | `All -> List.iter run Harness.Experiments.all_experiments
  | #Harness.Experiments.experiment as e -> run e

let cmd =
  let doc = "Reproduce the OrcGC paper's evaluation (PPoPP '21)" in
  let info = Cmd.info "orcgc-bench" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const main $ exp_arg $ threads_arg $ duration_arg $ list_keys_arg
      $ big_keys_arg $ csv_arg)

let () = exit (Cmd.eval cmd)
