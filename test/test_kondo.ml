(* Test entry point: aggregates one Alcotest suite per library plus the
   integration suite. *)

let () =
  Alcotest.run "kondo"
    [ Test_prng.suite;
      Test_parallel.suite;
      Test_geometry.suite;
      Test_dataarray.suite;
      Test_interval.suite;
      Test_faults.suite;
      Test_audit.suite;
      Test_h5.suite;
      Test_read_path.suite;
      Test_provenance.suite;
      Test_container.suite;
      Test_store.suite;
      Test_obs.suite;
      Test_workload.suite;
      Test_core.suite;
      Test_baselines.suite;
      Test_netcdf.suite;
      Test_extensions.suite;
      Test_robustness.suite;
      Test_integration.suite;
      Test_golden.suite ]
