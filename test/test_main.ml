let () =
  Alcotest.run "rap"
    [
      ("charclass", Test_charclass.suite);
      ("parser", Test_parser.suite);
      ("bitvec", Test_bitvec.suite);
      ("automata", Test_automata.suite);
      ("rewrite", Test_rewrite.suite);
      ("shift-and", Test_shift_and.suite);
      ("nbva", Test_nbva.suite);
      ("nbva-diff", Test_nbva_diff.suite);
      ("tables", Test_tables.suite);
      ("hardware", Test_hardware.suite);
      ("compiler", Test_compiler.suite);
      ("mapper", Test_mapper.suite);
      ("sim", Test_sim.suite);
      ("exec", Test_exec.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("batch", Test_batch.suite);
      ("service", Test_service.suite);
      ("stream", Test_stream.suite);
      ("fault", Test_fault.suite);
      ("integrity", Test_integrity.suite);
      ("workloads", Test_workloads.suite);
      ("api", Test_api.suite);
      ("mnrl", Test_mnrl.suite);
      ("bank", Test_bank.suite);
      ("eval", Test_eval.suite);
      ("edge-cases", Test_edge_cases.suite);
    ]
