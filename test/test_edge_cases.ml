(* Edge cases across layers: empty inputs, degenerate automata, boundary
   widths, and the export pipeline end to end. *)

open Alcotest

let params = Program.default_params

let test_empty_input () =
  let nfa = Glushkov.compile (Parser.parse_exn "abc") in
  check (list int) "nfa on empty" [] (Nfa.match_ends nfa "");
  let sa = Shift_and.of_bin [ [| Charclass.singleton 'a' |] ] in
  check (list int) "shift-and on empty" [] (Shift_and.run sa "");
  let nbva = Nbva.compile ~threshold:2 (Parser.parse_exn "a{3}") in
  check (list int) "nbva on empty" [] (Nbva.match_ends nbva "");
  match Rap.simulate ~regexes:[ "abc" ] ~input:"" () with
  | Ok r ->
      check int "no reports" 0 r.Runner.match_reports;
      check int "one cycle floor" 1 r.Runner.cycles
  | Error e -> fail e

let test_single_state_automata () =
  let nfa = Glushkov.compile (Parser.parse_exn "x") in
  check int "one state" 1 (Nfa.num_states nfa);
  check (list int) "matches each x" [ 0; 2 ] (Nfa.match_ends nfa "xax");
  let e = Engine.of_nfa_unit (Nfa_compile.compile (Parser.parse_exn "x")) in
  let ev = Engine.step e 'x' in
  check int "reports" 1 ev.Engine.reports;
  check int "one tile" 1 (Engine.num_tiles e)

let test_bitvec_width_boundaries () =
  (* widths at the 62-bit word boundary *)
  List.iter
    (fun w ->
      let v = Bitvec.create w in
      Bitvec.set v (w - 1);
      check bool (Printf.sprintf "top bit at width %d" w) true (Bitvec.get v (w - 1));
      Bitvec.shift_left1 v ~carry_in:false;
      check bool (Printf.sprintf "drop at width %d" w) true (Bitvec.is_zero v))
    [ 1; 61; 62; 63; 124; 125 ]

let test_bitvec_copy_independence () =
  let a = Bitvec.create 70 in
  Bitvec.set a 5;
  let b = Bitvec.copy a in
  Bitvec.set b 6;
  check bool "copy does not alias" false (Bitvec.get a 6);
  check bool "copy kept bits" true (Bitvec.get b 5)

let test_program_cols_of_tile_lnfa () =
  let u = Option.get (Mode_select.compile_as Mode_select.Lnfa_mode ~params ~source:"l" (Parser.parse_exn "abcdefgh")) in
  check int "single line, one tile" 1 (Program.num_tiles u.Program.kind);
  check int "eight columns" 8 (Program.cols_of_tile u.Program.kind 0);
  check_raises "out of range" (Invalid_argument "Program.cols_of_tile: tile index out of range")
    (fun () -> ignore (Program.cols_of_tile u.Program.kind 5))

let test_parse_and_compile_errors () =
  check bool "parse error" true
    (match Mode_select.parse_and_compile ~params "(((" with Error _ -> true | Ok _ -> false)

let test_export_all_end_to_end () =
  let dir = Filename.temp_file "rap_export" "" in
  Sys.remove dir;
  let env = { Experiments.chars = 300; scale = 1; jobs = 1 } in
  let written = Export.export_all env ~dir in
  check int "seven files" 7 (List.length written);
  List.iter
    (fun path ->
      check bool (path ^ " exists") true (Sys.file_exists path);
      check bool (path ^ " nonempty") true ((Unix.stat path).Unix.st_size > 0))
    written;
  List.iter Sys.remove written;
  Sys.rmdir dir

let test_nbva_zero_width_guard () =
  check_raises "Bitvec rejects negative width" (Invalid_argument "Bitvec.create") (fun () ->
      ignore (Bitvec.create (-1)));
  let v = Bitvec.create 0 in
  check bool "zero-width vector is zero" true (Bitvec.is_zero v);
  Bitvec.shift_left1 v ~carry_in:true;
  check bool "shift on zero width is a no-op" true (Bitvec.is_zero v)

let test_engine_long_quiet_stream () =
  (* engines stay quiescent and report nothing on pure noise *)
  let e = Engine.of_nbva_unit (Nbva_compile.compile ~params (Parser.parse_exn "sig[ab]{20}")) in
  let last = ref (Engine.events e) in
  for _ = 1 to 500 do
    last := Engine.step e 'z'
  done;
  check int "no reports" 0 !last.Engine.reports;
  check bool "no trigger" false !last.Engine.triggered.(0)

let suite =
  [
    test_case "empty inputs" `Quick test_empty_input;
    test_case "single-state automata" `Quick test_single_state_automata;
    test_case "bitvec width boundaries" `Quick test_bitvec_width_boundaries;
    test_case "bitvec copy independence" `Quick test_bitvec_copy_independence;
    test_case "LNFA tile column walk" `Quick test_program_cols_of_tile_lnfa;
    test_case "parse_and_compile errors" `Quick test_parse_and_compile_errors;
    test_case "export_all end to end" `Quick test_export_all_end_to_end;
    test_case "degenerate bit vectors" `Quick test_nbva_zero_width_guard;
    test_case "long quiet streams" `Quick test_engine_long_quiet_stream;
  ]
