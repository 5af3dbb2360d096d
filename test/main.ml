let () =
  Alcotest.run "orcgc"
    (Test_atomicx.suite @ Test_memdom.suite @ Test_reclaim.suite
   @ Test_orc.suite @ Test_queues.suite @ Test_lists.suite @ Test_trees.suite @ Test_skiplists.suite @ Test_harness.suite @ Test_extras.suite @ Test_whitebox.suite @ Test_faults.suite @ Test_orc_hp.suite @ Test_obs.suite @ Test_metrics.suite
   @ Test_scan.suite @ Test_pack.suite @ Test_background.suite
   @ Test_chaos.suite @ Test_split.suite
   @ Test_manual_core.suite @ Test_keys.suite @ Test_catalog.suite)
