let () =
  Alcotest.run "etextile"
    (Test_util.suite @ Test_pool.suite @ Test_json.suite @ Test_graph.suite
   @ Test_battery.suite @ Test_energy.suite
   @ Test_aes.suite @ Test_routing.suite @ Test_etsim.suite @ Test_fault.suite @ Test_workload.suite
   @ Test_analysis.suite @ Test_invariants.suite @ Test_scenario.suite @ Test_coverage.suite
   @ Test_edge.suite
   @ Test_experiments.suite @ Test_golden.suite @ Test_checkpoint.suite @ Test_audit.suite
   @ Test_metrics_wire.suite @ Test_service.suite @ Test_cluster.suite
   @ Test_failpoint.suite @ Test_supervisor.suite
   @ Test_obs.suite @ Test_docs.suite)
