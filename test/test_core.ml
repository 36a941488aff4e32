(* Tests for Kondo proper: clusters, the fuzz schedule, the carver, the
   metrics, and the debloat pipeline. *)

open Kondo_dataarray
open Kondo_workload
open Kondo_core

let small_config =
  { Config.default with Config.max_iter = 400; stop_iter = 150; n_init = 10; seed = 11 }

(* ---------------- Cluster ---------------- *)

let test_cluster_new_center_beyond_diameter () =
  let c = Cluster.create ~diameter:5.0 in
  Cluster.add c [| 0.0; 0.0 |];
  Cluster.add c [| 100.0; 0.0 |];
  Alcotest.(check int) "two clusters" 2 (Cluster.count c)

let test_cluster_join_within_diameter () =
  let c = Cluster.create ~diameter:5.0 in
  Cluster.add c [| 0.0; 0.0 |];
  Cluster.add c [| 2.0; 0.0 |];
  Alcotest.(check int) "one cluster" 1 (Cluster.count c);
  Alcotest.(check int) "two members" 2 (Cluster.total_members c);
  (* center is the running mean *)
  match Cluster.centers c with
  | [ center ] -> Alcotest.(check (float 1e-9)) "mean center" 1.0 center.(0)
  | _ -> Alcotest.fail "expected one center"

let test_cluster_nearest () =
  let c = Cluster.create ~diameter:1.0 in
  Alcotest.(check bool) "empty has no nearest" true (Cluster.nearest c [| 0.0 |] = None);
  Cluster.add c [| 0.0 |];
  Cluster.add c [| 10.0 |];
  match Cluster.nearest c [| 7.0 |] with
  | Some (center, d) ->
    Alcotest.(check (float 1e-9)) "nearest center" 10.0 center.(0);
    Alcotest.(check (float 1e-9)) "distance" 3.0 d
  | None -> Alcotest.fail "expected nearest"

(* ---------------- Schedule ---------------- *)

let test_schedule_deterministic () =
  let p = Stencils.ldc2d ~n:32 () in
  let a = Schedule.run ~config:small_config p in
  let b = Schedule.run ~config:small_config p in
  Alcotest.(check int) "same evaluations" a.Schedule.evaluations b.Schedule.evaluations;
  Alcotest.(check bool) "same discovered indices" true
    (Index_set.equal a.Schedule.indices b.Schedule.indices);
  Alcotest.(check bool) "same trace params" true
    (List.for_all2
       (fun (x : Schedule.outcome) (y : Schedule.outcome) -> x.Schedule.params = y.Schedule.params)
       a.Schedule.trace b.Schedule.trace)

let test_schedule_seed_changes_run () =
  let p = Stencils.ldc2d ~n:32 () in
  let a = Schedule.run ~config:small_config p in
  let b = Schedule.run ~config:(Config.with_seed small_config 99) p in
  Alcotest.(check bool) "different traces" true
    (List.map (fun (o : Schedule.outcome) -> Array.to_list o.Schedule.params) a.Schedule.trace
    <> List.map (fun (o : Schedule.outcome) -> Array.to_list o.Schedule.params) b.Schedule.trace)

let test_schedule_indices_sound () =
  (* IS accumulates only genuinely accessed indices: IS ⊆ I_Θ *)
  let p = Stencils.prl2d ~n:32 () in
  let r = Schedule.run ~config:small_config p in
  let truth = Program.ground_truth p in
  Alcotest.(check bool) "IS subset of truth" true (Index_set.subset r.Schedule.indices truth)

let test_schedule_stagnation_stop () =
  let p = Stencils.ldc2d ~n:32 () in
  let config = { small_config with Config.max_iter = 10_000; stop_iter = 100 } in
  let r = Schedule.run ~config p in
  Alcotest.(check bool) "stopped by stagnation" true (r.Schedule.stopped = Schedule.Stagnation);
  Alcotest.(check bool) "before max_iter" true (r.Schedule.iterations < 10_000)

let test_schedule_max_iter_stop () =
  let p = Stencils.cs ~n:64 1 in
  let config = { small_config with Config.max_iter = 50; stop_iter = 1_000 } in
  let r = Schedule.run ~config p in
  Alcotest.(check bool) "max iterations" true (r.Schedule.stopped = Schedule.Max_iterations);
  Alcotest.(check int) "iteration count" 50 r.Schedule.iterations

let test_schedule_time_budget_stop () =
  let p = Stencils.cs ~n:128 1 in
  let config =
    { small_config with Config.max_iter = max_int / 2; stop_iter = max_int / 2;
      time_budget = Some 0.05 }
  in
  let r = Schedule.run ~config p in
  Alcotest.(check bool) "stopped by budget" true (r.Schedule.stopped = Schedule.Time_budget)

let test_schedule_params_clamped () =
  let p = Stencils.cs ~n:32 1 in
  let r = Schedule.run ~config:small_config p in
  List.iter
    (fun (o : Schedule.outcome) ->
      Array.iteri
        (fun k x ->
          let lo, hi = p.Program.param_space.(k) in
          Alcotest.(check bool) "within Θ" true (x >= lo && x <= hi))
        o.Schedule.params)
    r.Schedule.trace

let test_schedule_finds_both_ldc_corners () =
  let p = Stencils.ldc2d ~n:32 () in
  let r = Schedule.run ~config:small_config p in
  Alcotest.(check bool) "top-left found" true (Index_set.mem r.Schedule.indices [| 0; 0 |]);
  Alcotest.(check bool) "bottom-right found" true (Index_set.mem r.Schedule.indices [| 31; 31 |])

let test_schedule_useful_counts () =
  let p = Stencils.ldc2d ~n:32 () in
  let r = Schedule.run ~config:small_config p in
  let trace_useful =
    List.length (List.filter (fun (o : Schedule.outcome) -> o.Schedule.useful) r.Schedule.trace)
  in
  Alcotest.(check int) "useful_count matches trace" trace_useful r.Schedule.useful_count;
  Alcotest.(check int) "evaluations match trace" (List.length r.Schedule.trace) r.Schedule.evaluations

let test_ee_vs_boundary_modes () =
  (* both schedules run; boundary-EE must not be worse at finding the
     boundary region of a banded program with the same budget *)
  let p = Stencils.cs ~n:64 3 in
  let budget = { small_config with Config.max_iter = 600; stop_iter = 600 } in
  let ee = Schedule.run ~config:{ budget with Config.schedule = Config.Ee } p in
  let bee = Schedule.run ~config:{ budget with Config.schedule = Config.Boundary_ee } p in
  Alcotest.(check bool) "both discover something" true
    (Index_set.cardinal ee.Schedule.indices > 0 && Index_set.cardinal bee.Schedule.indices > 0)

let test_custom_evaluator () =
  let p = Stencils.ldc2d ~n:32 () in
  let calls = ref 0 in
  let eval v is =
    incr calls;
    let set = Program.access p v in
    let before = Index_set.cardinal is in
    Index_set.union_into is set;
    (not (Index_set.is_empty set), Index_set.cardinal is - before)
  in
  let r = Schedule.run_with_eval ~config:small_config p ~eval in
  Alcotest.(check int) "evaluator called per evaluation" r.Schedule.evaluations !calls

(* ---------------- Carver ---------------- *)

let rect_points x0 y0 x1 y1 =
  let pts = ref [] in
  for x = x0 to x1 do
    for y = y0 to y1 do
      pts := [| x; y |] :: !pts
    done
  done;
  !pts

let test_carver_single_region () =
  let config = Config.default in
  let r = Carver.carve_points ~config ~dims:[| 64; 64 |] (rect_points 0 0 20 20) in
  Alcotest.(check int) "merged to one hull" 1 (List.length r.Carver.hulls);
  Alcotest.(check bool) "cells were split first" true (r.Carver.initial_cells > 1)

let test_carver_disjoint_regions_stay_separate () =
  let config = Config.default in
  let pts = rect_points 0 0 10 10 @ rect_points 100 100 110 110 in
  let r = Carver.carve_points ~config ~dims:[| 128; 128 |] pts in
  Alcotest.(check int) "two hulls" 2 (List.length r.Carver.hulls)

let test_carver_rasterize_covers_points () =
  let config = Config.default in
  let pts = rect_points 3 3 9 9 in
  let shape = Shape.create [| 32; 32 |] in
  let r = Carver.carve_points ~config ~dims:[| 32; 32 |] pts in
  let raster = Carver.rasterize shape r.Carver.hulls in
  List.iter
    (fun p -> Alcotest.(check bool) "covered" true (Index_set.mem raster p))
    pts

let test_carver_empty () =
  let r = Carver.carve_points ~config:Config.default ~dims:[| 8; 8 |] [] in
  Alcotest.(check int) "no hulls" 0 (List.length r.Carver.hulls)

let test_carver_fills_sandwiched_gap () =
  (* two nearby clusters must merge, covering the indices between them
     (Fig. 6's motivation); thresholds pinned: the geometry below is
     absolute, not relative to the 32x32 space *)
  let config = { Config.default with Config.autoscale = false } in
  let pts = rect_points 0 0 6 6 @ rect_points 10 0 16 6 in
  let shape = Shape.create [| 32; 32 |] in
  let r = Carver.carve_points ~config ~dims:[| 32; 32 |] pts in
  Alcotest.(check int) "merged" 1 (List.length r.Carver.hulls);
  let raster = Carver.rasterize shape r.Carver.hulls in
  Alcotest.(check bool) "sandwiched index included" true (Index_set.mem raster [| 8; 3 |])

let test_carver_merge_policies () =
  let pts = rect_points 0 0 6 6 @ rect_points 30 30 36 36 in
  let hull_count policy =
    let config = { Config.default with Config.merge_policy = policy; cell_size = Some 8 } in
    List.length (Carver.carve_points ~config ~dims:[| 64; 64 |] pts).Carver.hulls
  in
  (* Both is the strictest policy: it can never merge more than Either *)
  Alcotest.(check bool) "both >= either hull count" true
    (hull_count Config.Both >= hull_count Config.Either)

let test_carver_3d () =
  let pts = ref [] in
  for x = 0 to 5 do
    for y = 0 to 5 do
      for z = 0 to 5 do
        pts := [| x; y; z |] :: !pts
      done
    done
  done;
  let r = Carver.carve_points ~config:Config.default ~dims:[| 32; 32; 32 |] !pts in
  Alcotest.(check int) "one 3D hull" 1 (List.length r.Carver.hulls);
  let raster = Carver.rasterize (Shape.create [| 32; 32; 32 |]) r.Carver.hulls in
  Alcotest.(check int) "6^3 covered" 216 (Index_set.cardinal raster)

let test_carver_cell_sampling_cap () =
  let config = { Config.default with Config.max_cell_points = 16; cell_size = Some 64 } in
  let pts = rect_points 0 0 40 40 in
  let r = Carver.carve_points ~config ~dims:[| 64; 64 |] pts in
  (* sampling keeps extremes, so the hull still covers the full rectangle *)
  let raster = Carver.rasterize (Shape.create [| 64; 64 |]) r.Carver.hulls in
  Alcotest.(check bool) "corners covered" true
    (Index_set.mem raster [| 0; 0 |] && Index_set.mem raster [| 40; 40 |] && Index_set.mem raster [| 0; 40 |]);
  Alcotest.(check int) "full rectangle covered" (41 * 41) (Index_set.cardinal raster)

let test_close_predicate () =
  let open Kondo_geometry in
  let a = Hull.of_int_points (rect_points 0 0 4 4) in
  let b = Hull.of_int_points (rect_points 8 0 12 4) in
  let c = Hull.of_int_points (rect_points 100 100 104 104) in
  let config = Config.default in
  Alcotest.(check bool) "near hulls close" true (Carver.close ~config a b);
  Alcotest.(check bool) "far hulls not close" false (Carver.close ~config a c)

let test_single_hull_baseline () =
  let shape = Shape.create [| 64; 64 |] in
  let set = Index_set.of_list shape (rect_points 0 0 4 4 @ rect_points 50 50 54 54) in
  match Carver.single_hull set with
  | None -> Alcotest.fail "expected a hull"
  | Some h ->
    let raster = Carver.rasterize shape [ h ] in
    (* the single hull swallows the gap: precision loss of SC *)
    Alcotest.(check bool) "gap covered" true (Index_set.mem raster [| 27; 27 |])

(* Row rasterization against the per-point walk it replaced, on the hulls
   every suite program actually carves. *)
let test_suite_rasterize_matches_oracle () =
  let config = { Config.default with Config.max_iter = 300; stop_iter = 300; jobs = 1 } in
  List.iter
    (fun p ->
      let fuzz = Schedule.run ~config p in
      let hulls = (Carver.carve ~config fuzz.Schedule.indices).Carver.hulls in
      let shape = p.Program.shape in
      Alcotest.(check bool) (p.Program.name ^ " raster") true
        (Index_set.equal (Carver.rasterize shape hulls) (Lattice_oracle.rasterize shape hulls)))
    (Suite.all11 ~n:64 ~m:16 () @ Suite.extended ~m:16 ()
    @ Suite.real ~ard_scale:32 ~msi_scale:1024 ())

let arb_point_cloud =
  QCheck.(list_of_size (Gen.int_range 1 60) (pair (int_range 0 40) (int_range 0 40)))

let qcheck_carver_covers_inputs =
  QCheck.Test.make ~name:"carve+rasterize covers every input point" ~count:100 arb_point_cloud
    (fun raw ->
      let pts = List.map (fun (x, y) -> [| x; y |]) raw in
      let r = Carver.carve_points ~config:Config.default ~dims:[| 48; 48 |] pts in
      let raster = Carver.rasterize (Shape.create [| 48; 48 |]) r.Carver.hulls in
      List.for_all (fun p -> Index_set.mem raster p) pts)

let qcheck_carver_fixpoint =
  QCheck.Test.make ~name:"after merging, no two hulls are CLOSE" ~count:60 arb_point_cloud
    (fun raw ->
      let pts = List.map (fun (x, y) -> [| x; y |]) raw in
      let config = { Config.default with Config.autoscale = false } in
      let r = Carver.carve_points ~config ~dims:[| 48; 48 |] pts in
      let hulls = Array.of_list r.Carver.hulls in
      let ok = ref true in
      for i = 0 to Array.length hulls - 2 do
        for j = i + 1 to Array.length hulls - 1 do
          if Carver.close ~config hulls.(i) hulls.(j) then ok := false
        done
      done;
      !ok)

let qcheck_metrics_bounds =
  QCheck.Test.make ~name:"precision/recall/f1 stay in [0,1]" ~count:200
    QCheck.(pair (list (pair (int_range 0 7) (int_range 0 7))) (list (pair (int_range 0 7) (int_range 0 7))))
    (fun (ta, tb) ->
      let shape = Shape.create [| 8; 8 |] in
      let mk l = Index_set.of_list shape (List.map (fun (x, y) -> [| x; y |]) l) in
      let truth = mk ta and approx = mk tb in
      let a = Metrics.accuracy ~truth ~approx in
      let in01 x = x >= 0.0 && x <= 1.0 in
      in01 a.Metrics.precision && in01 a.Metrics.recall && in01 a.Metrics.f1
      && in01 a.Metrics.bloat)

let qcheck_schedule_deterministic =
  QCheck.Test.make ~name:"schedule is a pure function of (config, program)" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let p = Stencils.ldc2d ~n:32 () in
      let config = { Config.default with Config.seed; max_iter = 60; stop_iter = 60 } in
      let a = Schedule.run ~config p and b = Schedule.run ~config p in
      Index_set.equal a.Schedule.indices b.Schedule.indices
      && a.Schedule.evaluations = b.Schedule.evaluations)

(* ---------------- Metrics ---------------- *)

let test_metrics_known_values () =
  let shape = Shape.create [| 4; 4 |] in
  let truth = Index_set.of_list shape [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ] in
  let approx = Index_set.of_list shape [ [| 0; 0 |]; [| 0; 1 |]; [| 2; 2 |] ] in
  Alcotest.(check (float 1e-9)) "precision 2/3" (2.0 /. 3.0) (Metrics.precision ~truth ~approx);
  Alcotest.(check (float 1e-9)) "recall 1/2" 0.5 (Metrics.recall ~truth ~approx);
  Alcotest.(check (float 1e-9)) "bloat 13/16" (13.0 /. 16.0) (Metrics.bloat_fraction approx)

let test_metrics_empty_cases () =
  let shape = Shape.create [| 2; 2 |] in
  let empty = Index_set.create shape in
  let full = Index_set.of_list shape [ [| 0; 0 |] ] in
  Alcotest.(check (float 1e-9)) "precision of empty approx" 1.0 (Metrics.precision ~truth:full ~approx:empty);
  Alcotest.(check (float 1e-9)) "recall of empty truth" 1.0 (Metrics.recall ~truth:empty ~approx:full)

let test_metrics_perfect () =
  let p = Stencils.ldc2d ~n:16 () in
  let truth = Program.ground_truth p in
  let a = Metrics.accuracy ~truth ~approx:truth in
  Alcotest.(check (float 1e-9)) "precision" 1.0 a.Metrics.precision;
  Alcotest.(check (float 1e-9)) "recall" 1.0 a.Metrics.recall;
  Alcotest.(check (float 1e-9)) "f1" 1.0 a.Metrics.f1

let test_missed_valuation_rate () =
  let p = Stencils.ldc2d ~n:16 () in
  let truth = Program.ground_truth p in
  Alcotest.(check (float 1e-9)) "perfect approx misses nothing" 0.0
    (Metrics.missed_valuation_rate p ~approx:truth);
  let empty = Index_set.create p.Program.shape in
  let rate = Metrics.missed_valuation_rate p ~approx:empty in
  (* with an empty approximation, exactly the useful valuations miss *)
  let useful = ref 0 and total = ref 0 in
  Program.iter_param_space p (fun v ->
      incr total;
      if Program.is_useful p v then incr useful);
  let expected = float_of_int !useful /. float_of_int !total in
  Alcotest.(check (float 1e-9)) "rate = useful fraction" expected rate

(* ---------------- Pipeline ---------------- *)

let test_pipeline_ldc_perfect () =
  let p = Stencils.ldc2d ~n:32 () in
  let r = Pipeline.evaluate ~config:small_config p in
  let a = Option.get r.Pipeline.accuracy in
  Alcotest.(check (float 1e-9)) "precision 1 (disjoint separation)" 1.0 a.Metrics.precision;
  Alcotest.(check bool) "high recall" true (a.Metrics.recall > 0.95)

let test_pipeline_approx_superset_of_observed () =
  let p = Stencils.prl2d ~n:32 () in
  let r = Pipeline.evaluate ~config:small_config p in
  Alcotest.(check bool) "observed ⊆ approx" true
    (Index_set.subset r.Pipeline.fuzz.Schedule.indices r.Pipeline.approx)

let test_keep_intervals_roundtrip () =
  let p = Stencils.ldc2d ~n:16 () in
  let shape = p.Program.shape in
  let approx = Index_set.of_list shape [ [| 0; 0 |]; [| 0; 1 |]; [| 5; 5 |] ] in
  let keep = Pipeline.keep_intervals p approx ~layout:Layout.Contiguous in
  let esz = Dtype.size p.Program.dtype in
  (* adjacent elements coalesce: (0,0)(0,1) are one run *)
  Alcotest.(check int) "two runs" 2 (Kondo_interval.Interval_set.cardinal keep);
  Alcotest.(check int) "three elements" (3 * esz) (Kondo_interval.Interval_set.total_length keep);
  (* every kept element's byte range is covered *)
  Index_set.iter approx (fun idx ->
      let off = Layout.element_offset Layout.Contiguous shape p.Program.dtype idx in
      Alcotest.(check bool) "covered" true
        (Kondo_interval.Interval_set.covers keep (Kondo_interval.Interval.make off (off + esz))))

let test_keep_intervals_chunked () =
  let p = Stencils.ldc2d ~n:16 () in
  let layout = Layout.Chunked [| 4; 4 |] in
  let approx = Index_set.of_list p.Program.shape [ [| 0; 0 |]; [| 15; 15 |] ] in
  let keep = Pipeline.keep_intervals p approx ~layout in
  let esz = Dtype.size p.Program.dtype in
  Index_set.iter approx (fun idx ->
      let off = Layout.element_offset layout p.Program.shape p.Program.dtype idx in
      Alcotest.(check bool) "chunked offsets covered" true
        (Kondo_interval.Interval_set.covers keep (Kondo_interval.Interval.make off (off + esz))))

let test_debloat_file_end_to_end () =
  let p = Stencils.ldc2d ~n:16 () in
  let src = Filename.temp_file "kondo_pipe_src" ".kh5" in
  let dst = Filename.temp_file "kondo_pipe_dst" ".kh5" in
  Datafile.write_for ~path:src p;
  let report = Pipeline.debloat_file ~config:small_config p ~src ~dst in
  let d = Kondo_h5.File.open_file dst in
  (* every index Kondo kept reads back the original value *)
  let checked = ref 0 in
  Index_set.iter report.Pipeline.approx (fun idx ->
      if !checked < 200 then begin
        incr checked;
        Alcotest.(check (float 1e-9)) "value preserved" (Datafile.fill idx)
          (Kondo_h5.File.read_element d p.Program.dataset idx)
      end);
  (* and the debloated file is smaller *)
  let s = Kondo_h5.File.open_file src in
  Alcotest.(check bool) "smaller" true (Kondo_h5.File.file_size d < Kondo_h5.File.file_size s);
  Kondo_h5.File.close s;
  Kondo_h5.File.close d;
  Sys.remove src;
  Sys.remove dst

let test_debloat_supports_program_reruns () =
  (* re-running the program on observed parameter values against the
     debloated file must not raise Data_missing *)
  let p = Stencils.rdc2d ~n:16 () in
  let src = Filename.temp_file "kondo_rerun_src" ".kh5" in
  let dst = Filename.temp_file "kondo_rerun_dst" ".kh5" in
  Datafile.write_for ~path:src p;
  let report = Pipeline.debloat_file ~config:small_config p ~src ~dst in
  let d = Kondo_h5.File.open_file dst in
  List.iter
    (fun (o : Schedule.outcome) ->
      if o.Schedule.useful then ignore (Program.run_io p d o.Schedule.params))
    report.Pipeline.fuzz.Schedule.trace;
  Kondo_h5.File.close d;
  Sys.remove src;
  Sys.remove dst

let test_config_auto_cell_size () =
  Alcotest.(check int) "small shapes floor at 8" 8 (Config.auto_cell_size Config.default [| 32; 32 |]);
  Alcotest.(check int) "128 -> 8" 8 (Config.auto_cell_size Config.default [| 128; 128 |]);
  Alcotest.(check int) "2048 -> 128" 128 (Config.auto_cell_size Config.default [| 2048; 2048 |]);
  Alcotest.(check int) "explicit wins" 5
    (Config.auto_cell_size { Config.default with Config.cell_size = Some 5 } [| 2048 |])

let suite =
  ( "core",
    [ Alcotest.test_case "cluster: new center beyond diameter" `Quick
        test_cluster_new_center_beyond_diameter;
      Alcotest.test_case "cluster: join within diameter" `Quick test_cluster_join_within_diameter;
      Alcotest.test_case "cluster: nearest" `Quick test_cluster_nearest;
      Alcotest.test_case "schedule: deterministic" `Quick test_schedule_deterministic;
      Alcotest.test_case "schedule: seed sensitivity" `Quick test_schedule_seed_changes_run;
      Alcotest.test_case "schedule: IS subset of truth" `Quick test_schedule_indices_sound;
      Alcotest.test_case "schedule: stagnation stop" `Quick test_schedule_stagnation_stop;
      Alcotest.test_case "schedule: max-iter stop" `Quick test_schedule_max_iter_stop;
      Alcotest.test_case "schedule: time-budget stop" `Quick test_schedule_time_budget_stop;
      Alcotest.test_case "schedule: params stay in Θ" `Quick test_schedule_params_clamped;
      Alcotest.test_case "schedule: finds both LDC corners" `Quick
        test_schedule_finds_both_ldc_corners;
      Alcotest.test_case "schedule: counters consistent" `Quick test_schedule_useful_counts;
      Alcotest.test_case "schedule: EE and boundary-EE modes" `Quick test_ee_vs_boundary_modes;
      Alcotest.test_case "schedule: custom evaluator" `Quick test_custom_evaluator;
      Alcotest.test_case "carver: single region" `Quick test_carver_single_region;
      Alcotest.test_case "carver: disjoint regions separate" `Quick
        test_carver_disjoint_regions_stay_separate;
      Alcotest.test_case "carver: rasterize covers inputs" `Quick test_carver_rasterize_covers_points;
      Alcotest.test_case "carver: suite rasters match the per-point oracle" `Quick
        test_suite_rasterize_matches_oracle;
      Alcotest.test_case "carver: empty input" `Quick test_carver_empty;
      Alcotest.test_case "carver: fills sandwiched gaps" `Quick test_carver_fills_sandwiched_gap;
      Alcotest.test_case "carver: merge policy strictness" `Quick test_carver_merge_policies;
      Alcotest.test_case "carver: 3D" `Quick test_carver_3d;
      Alcotest.test_case "carver: sampling cap keeps extremes" `Quick test_carver_cell_sampling_cap;
      Alcotest.test_case "carver: close predicate" `Quick test_close_predicate;
      Alcotest.test_case "carver: single-hull baseline swallows gaps" `Quick
        test_single_hull_baseline;
      QCheck_alcotest.to_alcotest qcheck_carver_covers_inputs;
      QCheck_alcotest.to_alcotest qcheck_carver_fixpoint;
      QCheck_alcotest.to_alcotest qcheck_metrics_bounds;
      QCheck_alcotest.to_alcotest qcheck_schedule_deterministic;
      Alcotest.test_case "metrics: known values" `Quick test_metrics_known_values;
      Alcotest.test_case "metrics: empty cases" `Quick test_metrics_empty_cases;
      Alcotest.test_case "metrics: perfect approx" `Quick test_metrics_perfect;
      Alcotest.test_case "metrics: missed valuation rate" `Quick test_missed_valuation_rate;
      Alcotest.test_case "pipeline: LDC precision 1" `Quick test_pipeline_ldc_perfect;
      Alcotest.test_case "pipeline: approx ⊇ observed" `Quick
        test_pipeline_approx_superset_of_observed;
      Alcotest.test_case "pipeline: keep intervals roundtrip" `Quick test_keep_intervals_roundtrip;
      Alcotest.test_case "pipeline: keep intervals chunked" `Quick test_keep_intervals_chunked;
      Alcotest.test_case "pipeline: debloat file end to end" `Quick test_debloat_file_end_to_end;
      Alcotest.test_case "pipeline: reruns survive debloated file" `Quick
        test_debloat_supports_program_reruns;
      Alcotest.test_case "config: auto cell size" `Quick test_config_auto_cell_size ] )
