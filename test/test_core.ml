(** Test-suite entry point: aggregates the per-module suites. *)

let () =
  Alcotest.run "softft"
    [ ("rng", Test_rng.tests);
      ("ir", Test_ir.tests);
      ("ir-edit", Test_ir_edit.tests);
      ("parser", Test_parser.tests);
      ("analysis", Test_analysis.tests);
      ("lint", Test_lint.tests);
      ("coverage", Test_coverage.tests);
      ("plan", Test_plan.tests);
      ("interp", Test_interp.tests);
      ("fidelity", Test_fidelity.tests);
      ("profiling", Test_profiling.tests);
      ("transform", Test_transform.tests);
      ("faults", Test_faults.tests);
      ("taint", Test_taint.tests);
      ("workloads", Test_workloads.tests);
      ("codecs", Test_codecs.tests);
      ("api", Test_api.tests);
      ("report", Test_report.tests);
      ("obs", Test_obs.tests);
      ("warehouse", Test_warehouse.tests);
      ("cli", Test_cli.tests);
      ("properties", Test_properties.tests);
    ]
