let () =
  Alcotest.run "mmc"
    [
      ("regexe", Test_regexe.suite);
      ("grammar", Test_grammar.suite);
      ("runtime", Test_runtime.suite);
      ("cir", Test_cir.suite);
      ("ag", Test_ag.suite);
      ("pipeline", Test_pipeline.suite);
      ("eddy", Test_eddy.suite);
      ("cilk", Test_cilk.suite);
      ("programs", Test_programs.suite);
      ("telemetry", Test_telemetry.suite);
      ("kernels", Test_kernels.suite);
      ("profile", Test_profile.suite);
      ("explain", Test_explain.suite);
      ("golden", Test_golden.suite);
      ("faults", Test_faults.suite);
      ("native", Test_native.suite);
      ("native_profile", Test_native_profile.suite);
      ("native_faults", Test_native_faults.suite);
      ("exec_index", Test_exec_index.suite);
    ]
