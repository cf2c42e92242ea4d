let () =
  Alcotest.run "air"
    [ ("sim", Test_sim.suite);
      ("model", Test_model.suite);
      ("validate", Test_validate.suite);
      ("spatial", Test_spatial.suite);
      ("ipc", Test_ipc.suite);
      ("pos", Test_pos.suite);
      ("deadline-store", Test_deadline_store.suite);
      ("pal-pmk", Test_pal_pmk.suite);
      ("system", Test_system.suite);
      ("analysis", Test_analysis.suite);
      ("config", Test_config.suite);
      ("workload-vitral", Test_workload_vitral.suite);
      ("apex", Test_apex.suite);
      ("multicore", Test_multicore.suite);
      ("obs", Test_obs.suite);
      ("trace", Test_trace.suite);
      ("telemetry", Test_telemetry.suite);
      ("misc", Test_misc.suite);
      ("properties", Test_properties.suite);
      ("arinc", Test_arinc.suite);
      ("cluster", Test_cluster.suite);
      ("fleet", Test_fleet.suite);
      ("contention", Test_contention.suite);
      ("faults", Test_faults.suite);
      ("exec", Test_exec.suite);
      ("causal", Test_causal.suite);
      ("json", Test_json.suite);
      ("observe", Test_observe.suite);
      ("rings", Test_rings.suite) ]
