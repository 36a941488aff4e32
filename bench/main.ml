(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation (SecV); see
   DESIGN.md's per-experiment index and EXPERIMENTS.md for paper-vs-
   measured numbers.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig7 table3  # selected experiments
     dune exec bench/main.exe -- --list       # available ids *)

let experiments =
  [ ("table1", "Table I: stencil types", Exp_overview.table1);
    ("table2", "Table II: the 11 programs", Exp_overview.table2);
    ("fig1", "Figure 1: cross-stencil runs", Exp_overview.fig1);
    ("fig4", "Figure 4: EE vs boundary-EE", Exp_schedules.run);
    ("fig6", "Figure 6: hull merge vs single hull", Exp_overview.fig6);
    ("fig7", "Figure 7: recall at fixed budget", Exp_accuracy.fig7);
    ("fig8", "Figures 8+9: precision and identified bloat", Exp_accuracy.fig8_fig9);
    ("missed", "SecV-D1: missed valuation rates", Exp_accuracy.missed_rates);
    ("fig10", "Figure 10: budget to reach Kondo's recall", Exp_time.run);
    ("fig11a", "Figure 11a: accuracy vs data size", Exp_sensitivity.fig11a);
    ("fig11bc", "Figures 11b/c: merge-threshold sensitivity", Exp_sensitivity.fig11bc);
    ("ablation", "Design-choice ablations", Exp_sensitivity.ablation);
    ("audit", "SecV-D6: audit overhead", Exp_audit.run);
    ("table3", "Table III: ARD and MSI", Exp_realapps.run);
    ("idioms", "Extension: real-application subsetting idioms", Exp_idioms.run);
    ("filelevel", "Extension: offset-level vs file-level debloating", Exp_filelevel.run);
    ("parallel", "Parallel engine: sequential vs domain-parallel wall time", Exp_parallel.run);
    ("faults", "Fault tolerance: served reads under swept fault rates", Exp_faults.run);
    ("store", "Content-addressed store: cache budget sweep over served misses", Exp_store.run);
    ("pipeline", "End-to-end debloat split by span over the size sweep", Exp_pipeline.run);
    ("micro", "Bechamel micro-benchmarks", Microbench.run) ]

let list_ids () =
  print_endline "available experiments:";
  List.iter (fun (id, title, _) -> Printf.printf "  %-10s %s\n" id title) experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--list" ] -> list_ids ()
  | [] ->
    let t0 = Exp_common.now () in
    List.iter (fun (_, _, f) -> f ()) experiments;
    Printf.printf "\nAll experiments completed in %.1fs.\n" (Exp_common.now () -. t0)
  | ids ->
    List.iter
      (fun id ->
        match List.find_opt (fun (i, _, _) -> i = id) experiments with
        | Some (_, _, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          list_ids ();
          exit 1)
      ids
