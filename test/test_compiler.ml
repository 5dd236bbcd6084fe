(* Mode decision graph, NBVA/NFA/LNFA compilation backends. *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn
let decide s = Mode_select.decide ~params (parse s)

let test_decision_graph () =
  let show m = Mode_select.mode_names m in
  let expect s m =
    check string (Printf.sprintf "decide %s" s) (show m) (show (decide s))
  in
  expect "abc" Mode_select.Lnfa_mode;
  expect "a[bc].d?" Mode_select.Lnfa_mode;
  expect "a{100}b" Mode_select.Nbva_mode;
  expect "evil.{10,200}sig" Mode_select.Nbva_mode;
  expect "(foo|bar)+baz" Mode_select.Nfa_mode;
  expect "a.*b" Mode_select.Nfa_mode;
  (* small bounds unfold and stay linear *)
  expect "a{3}b" Mode_select.Lnfa_mode;
  (* non-class repetition bodies cannot use bit vectors; (ab){100}
     unfolds into one long line, so it still lands on LNFA... *)
  expect "(ab){100}" Mode_select.Lnfa_mode;
  (* ...but an alternation of unequal words blows up the line rewriting *)
  expect "(a|bb){12}" Mode_select.Nfa_mode

let test_decision_threshold_dependence () =
  let p8 = { params with Program.unfold_threshold = 8 } in
  let p20 = { params with Program.unfold_threshold = 20 } in
  let r = parse "a{10}b" in
  check bool "kept at threshold 8" true (Mode_select.decide ~params:p8 r = Mode_select.Nbva_mode);
  check bool "unfolded at threshold 20" true
    (Mode_select.decide ~params:p20 r <> Mode_select.Nbva_mode)

let test_compile_as () =
  let c = Option.get (Mode_select.compile_as Mode_select.Nfa_mode ~params ~source:"x" (parse "a{20}b")) in
  (match c.Program.kind with
  | Program.U_nfa u -> check int "unfolded states" 21 (Nfa.num_states u.Program.nfa)
  | _ -> fail "expected NFA unit");
  check bool "LNFA impossible for a.*b" true
    (Mode_select.compile_as Mode_select.Lnfa_mode ~params ~source:"x" (parse "a.*b") = None)

(* NBVA compilation *)

let test_max_single_bv () =
  (* Example 4.3: at depth 4, the largest bound in one tile is 504 *)
  check int "depth 4" 504 (Nbva_compile.max_single_bv_bits ~depth:4);
  check int "depth 8" 1008 (Nbva_compile.max_single_bv_bits ~depth:8);
  (* the 4064-bit ceiling kicks in for deep tiles *)
  check int "depth 32 capped" 4032 (Nbva_compile.max_single_bv_bits ~depth:32)

let test_split_oversized_example_4_3 () =
  (* a{1024} at depth 4 -> a{504} a{504} a{16} *)
  let r = Nbva_compile.split_oversized ~depth:4 (parse "a{1024}") in
  let bounds =
    let rec collect acc = function
      | Ast.Epsilon | Ast.Class _ -> acc
      | Ast.Concat (a, b) | Ast.Alt (a, b) -> collect (collect acc a) b
      | Ast.Star a -> collect acc a
      | Ast.Repeat (_, m, _) -> m :: acc
    in
    List.rev (collect [] r)
  in
  check (list int) "chunks" [ 16; 504; 504 ] (List.sort compare bounds)

let test_split_oversized_preserves_language () =
  let r = parse "a{600}b" in
  let s = Nbva_compile.split_oversized ~depth:4 r in
  let n1 = Glushkov.compile r and n2 = Glushkov.compile s in
  let input = String.make 600 'a' ^ "b" in
  check bool "still matches" true (Nfa.match_ends n1 input = Nfa.match_ends n2 input);
  let short = String.make 599 'a' ^ "b" in
  check bool "still rejects" true (Nfa.match_ends n1 short = Nfa.match_ends n2 short)

let test_nbva_tile_constraints () =
  let u = Nbva_compile.compile ~params (parse "head[ab]{100,400}tail") in
  (* r(m) and rAll never share a tile *)
  Array.iter
    (fun (t : Program.nbva_tile) ->
      let has_r, has_rall =
        List.fold_left
          (fun (r, ra) (a : Program.bv_alloc) ->
            match a.Program.read with
            | Nbva.Read_exact _ -> (true, ra)
            | Nbva.Read_all -> (r, true))
          (false, false) t.Program.bvs
      in
      check bool "no r/rAll mixing" false (has_r && has_rall);
      check bool "column budget" true
        (t.Program.cc_cols + t.Program.set1_cols + t.Program.bv_cols <= 128))
    u.Program.ntiles;
  check bool "needs at least 2 tiles" true (Array.length u.Program.ntiles >= 2)

let test_nbva_width_arithmetic () =
  (* f{128} at depth 16 occupies 8 columns (Example 4.2) *)
  let p = { params with Program.bv_depth = 16; unfold_threshold = 8 } in
  let u = Nbva_compile.compile ~params:p (parse "ef{128}g") in
  let widths =
    Array.to_list u.Program.ntiles
    |> List.concat_map (fun (t : Program.nbva_tile) ->
           List.map (fun (a : Program.bv_alloc) -> a.Program.width) t.Program.bvs)
  in
  check (list int) "width 8" [ 8 ] widths

let test_bvap_compile_slots () =
  let p = params in
  let u = Nbva_compile.compile_bvap ~params:p (parse "aaaa[xy]{300}bbbb") in
  (* 300 bits -> 2 slots of 256, i.e. 8 BVM columns of 128 bits *)
  let widths =
    Array.to_list u.Program.ntiles
    |> List.concat_map (fun (t : Program.nbva_tile) ->
           List.map (fun (a : Program.bv_alloc) -> a.Program.width) t.Program.bvs)
  in
  check (list int) "two slots = eight BVM columns" [ 8 ] widths;
  check bool "bvap cap recorded" true (u.Program.bv_bits_cap = 2048);
  (* BVM storage is not CAM storage: no CAM columns beyond the classes *)
  Array.iter
    (fun (t : Program.nbva_tile) -> check int "no CAM BV columns" 0 t.Program.bv_cols)
    u.Program.ntiles

(* NFA compilation *)

let test_nfa_slicing () =
  let u = Nfa_compile.compile (parse (String.concat "" (List.init 300 (fun _ -> "a")))) in
  check int "300 states over 3 tiles" 3 (Array.length u.Program.tile_states);
  check int "tile 0 full" 128 u.Program.tile_states.(0);
  check int "cross edges = tile boundaries" 2 (List.length u.Program.cross_edges);
  Array.iter (fun c -> check bool "cols within budget" true (c <= 128)) u.Program.tile_cols

let test_nfa_multicode_classes_cost_columns () =
  (* [a-z] needs 2 columns, so fewer fit per tile *)
  let r = parse (String.concat "" (List.init 100 (fun _ -> "[a-z]"))) in
  let u = Nfa_compile.compile r in
  check bool "more tiles than states/128" true (Array.length u.Program.tile_states >= 2);
  check int "total cols = 200" 200 (Array.fold_left ( + ) 0 u.Program.tile_cols)

let test_ca_geometry () =
  let r = parse (String.concat "" (List.init 300 (fun _ -> "[a-z]"))) in
  let u = Nfa_compile.compile ~tile_capacity_cols:256 ~col_demand:(fun _ -> 1) r in
  check int "two 256-STE tiles" 2 (Array.length u.Program.tile_states)

(* LNFA compilation *)

let test_lnfa_compile () =
  let u = Option.get (Lnfa_compile.try_compile (parse "a[bc].d?")) in
  check int "two lines" 2 (List.length u.Program.lines);
  check int "seven states" 7 u.Program.states;
  check bool "dot line is not single-code" true
    (List.exists (fun l -> not l.Program.single_code) u.Program.lines);
  check bool "rejects stars" true (Lnfa_compile.try_compile (parse "ab*c") = None)

let test_lnfa_blowup_budget () =
  (* (a|b)(a|b)(a|b)(a|b)(a|b): 32 lines x 5 = 160 states vs 10 Glushkov:
     16x blowup, way past the 2x budget *)
  check bool "blowup rejected" true
    (Lnfa_compile.try_compile (parse "(a|b)(a|b)(a|b)(a|b)(a|b)") = None)

(* Typed compile/placement errors *)

let test_parse_error_structured () =
  match Mode_select.parse_and_compile ~params "(((" with
  | Ok _ -> fail "expected parse error"
  | Error e -> (
      check string "source recorded" "(((" e.Compile_error.source;
      match e.Compile_error.reason with
      | Compile_error.Parse_error _ ->
          check string "label" "parse-error" (Compile_error.reason_label e.Compile_error.reason)
      | _ -> fail "expected Parse_error")

let test_cama_oversize_structured () =
  (* a{3000} unfolds to a 3000-state NFA: 24 tiles, over CAMA's one-array
     ceiling — the good rule still compiles and simulates *)
  let regexes = [ ("a{3000}", parse "a{3000}"); ("abcabc", parse "abcabc") ] in
  let compiled, errors = Runner.compile_for Arch.cama ~params regexes in
  check int "one survivor" 1 (List.length compiled);
  (match errors with
  | [ e ] -> (
      check string "oversize source" "a{3000}" e.Compile_error.source;
      match e.Compile_error.reason with
      | Compile_error.Oversize { tiles_needed; tiles_cap } ->
          check bool "needs more than cap" true (tiles_needed > tiles_cap)
      | _ -> fail "expected Oversize")
  | _ -> fail "expected exactly one error");
  let placement = Runner.place Arch.cama ~params compiled in
  let r = Runner.run Arch.cama ~params placement ~input:"xxabcabcxx" in
  check bool "remainder simulates" true (r.Runner.match_reports > 0)

let test_mapper_oversize_drop_structured () =
  (* unit 0 alone exceeds one array; map_units_result drops it with a
     structured reason and places the rest *)
  let huge =
    Option.get
      (Mode_select.compile_as Mode_select.Nfa_mode ~params ~source:"huge"
         (parse (String.concat "" (List.init 2200 (fun _ -> "a")))))
  in
  let small = Mode_select.compile ~params ~source:"small" (parse "b{200}") in
  let placement, drops, _ = Mapper.map_units_result ~params [| huge; small |] in
  (match drops with
  | [ e ] -> (
      check string "dropped source" "huge" e.Compile_error.source;
      match e.Compile_error.reason with
      | Compile_error.Oversize { tiles_needed; tiles_cap } ->
          check int "cap is one array" 16 tiles_cap;
          check bool "demand over cap" true (tiles_needed > 16)
      | _ -> fail "expected Oversize")
  | _ -> fail "expected exactly one drop");
  check int "survivor placed" 1 (Array.length placement.Mapper.units);
  check string "survivor reindexed" "small" placement.Mapper.units.(0).Program.source

let prop_forced_nfa_always_possible =
  QCheck2.Test.make ~name:"NFA mode accepts any (fitting) regex" ~count:200
    ~print:Gen.ast_print (Gen.gen_ast ())
    (fun r ->
      match Mode_select.compile_as Mode_select.Nfa_mode ~params ~source:"q" r with
      | Some c -> Program.num_states c.Program.kind = Ast.literal_width (Rewrite.unfold_all r)
      | None -> false)

let prop_decision_matches_compile =
  QCheck2.Test.make ~name:"decision graph always compiles" ~count:200 ~print:Gen.ast_print
    (Gen.gen_ast ())
    (fun r ->
      let c = Mode_select.compile ~params ~source:"q" r in
      Program.mode_name c.Program.kind = Mode_select.mode_names (Mode_select.decide ~params r))

let suite =
  [
    test_case "decision graph (fig 9)" `Quick test_decision_graph;
    test_case "threshold dependence" `Quick test_decision_threshold_dependence;
    test_case "forced modes" `Quick test_compile_as;
    test_case "max BV per tile (example 4.3)" `Quick test_max_single_bv;
    test_case "oversized split (example 4.3)" `Quick test_split_oversized_example_4_3;
    test_case "oversized split preserves language" `Quick test_split_oversized_preserves_language;
    test_case "NBVA tile constraints" `Quick test_nbva_tile_constraints;
    test_case "BV width arithmetic (example 4.2)" `Quick test_nbva_width_arithmetic;
    test_case "BVAP slot compilation" `Quick test_bvap_compile_slots;
    test_case "NFA tile slicing" `Quick test_nfa_slicing;
    test_case "multi-code classes cost columns" `Quick test_nfa_multicode_classes_cost_columns;
    test_case "CA tile geometry" `Quick test_ca_geometry;
    test_case "LNFA line compilation" `Quick test_lnfa_compile;
    test_case "LNFA blow-up budget" `Quick test_lnfa_blowup_budget;
    test_case "parse error is structured" `Quick test_parse_error_structured;
    test_case "CAMA oversize is structured" `Quick test_cama_oversize_structured;
    test_case "mapper oversize drop is structured" `Quick test_mapper_oversize_drop_structured;
    QCheck_alcotest.to_alcotest prop_forced_nfa_always_possible;
    QCheck_alcotest.to_alcotest prop_decision_matches_compile;
  ]
