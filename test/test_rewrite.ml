open Alcotest

let parse = Parser.parse_exn

let ast = testable (fun fmt r -> Ast.pp fmt r) Ast.equal

let same_language ?(inputs = []) a b =
  (* structural spot check: compare NFA match results on a set of inputs *)
  let na = Glushkov.compile a and nb = Glushkov.compile b in
  List.for_all (fun s -> Nfa.match_ends na s = Nfa.match_ends nb s) inputs

let test_unfold_all () =
  let r = parse "a{3}" in
  let u = Rewrite.unfold_all r in
  check bool "no repeats left" false (Ast.has_bounded_repetition u);
  check ast "aaa" (parse "aaa") u;
  let r2 = Rewrite.unfold_all (parse "a{1,3}") in
  check bool "width" true (Ast.literal_width r2 = 3);
  check bool "lang preserved" true
    (same_language r2 (parse "a{1,3}") ~inputs:[ "a"; "aa"; "aaa"; "aaaa"; "b" ]);
  let r3 = Rewrite.unfold_all (parse "a{2,}") in
  check bool "unbounded unfolds to aa a*" true
    (same_language r3 (parse "aaa*") ~inputs:[ "a"; "aa"; "aaa"; "aaaa" ])

let test_unfold_example_4_1 () =
  (* threshold 4: ab(cd){2}e{1,3}f{2,}g{5} -> abcdcd e(e(e)?)? fff* g{5} *)
  let r = parse "ab(cd){2}e{1,3}f{2,}g{5}" in
  let u = Rewrite.unfold_for_nbva ~threshold:4 r in
  let residual_bounds =
    let rec collect acc = function
      | Ast.Epsilon | Ast.Class _ -> acc
      | Ast.Concat (a, b) | Ast.Alt (a, b) -> collect (collect acc a) b
      | Ast.Star a -> collect acc a
      | Ast.Repeat (a, 0, Some 1) -> collect acc a (* optionality, not a counter *)
      | Ast.Repeat (a, m, n) -> collect ((m, n) :: acc) a
    in
    collect [] u
  in
  check (list (pair int (option int))) "only g{5} survives" [ (5, Some 5) ] residual_bounds;
  check bool "language preserved" true
    (same_language r u
       ~inputs:[ "abcdcdeffggggg"; "abcdcdeeefffffggggg"; "abcdeffggggg"; "abcdcdeffgggg" ])

let test_unfold_non_class_body () =
  (* (ab){10} has a non-class body: always unfolded, whatever the threshold *)
  let u = Rewrite.unfold_for_nbva ~threshold:4 (parse "(ab){10}") in
  check bool "unfolded" false (Ast.has_bounded_repetition u);
  (* a{10} has a class body and a large bound: kept *)
  let k = Rewrite.unfold_for_nbva ~threshold:4 (parse "a{10}") in
  check bool "kept" true (Ast.has_bounded_repetition k)

let test_split_bounded () =
  (* b{10,48} -> b{10} b{0,38} *)
  let s = Rewrite.split_bounded (parse "b{10,48}") in
  check ast "split" (Ast.concat (parse "b{10}") (Ast.repeat (Ast.chr 'b') 0 (Some 38))) s;
  (* exact bound untouched *)
  check ast "exact untouched" (parse "d{34}") (Rewrite.split_bounded (parse "d{34}"));
  (* 0-lower-bound untouched *)
  check ast "optional untouched" (parse "c{0,16}") (Rewrite.split_bounded (parse "c{0,16}"))

let test_pad_to_depth () =
  (* Example 4.2: d{34} at depth 16 -> d{32} d d *)
  let p = Rewrite.pad_to_depth ~depth:16 (parse "d{34}") in
  check ast "padded" (Ast.concat (parse "d{32}") (parse "dd")) p;
  check ast "aligned untouched" (parse "f{128}") (Rewrite.pad_to_depth ~depth:16 (parse "f{128}"));
  check bool "lang preserved" true
    (same_language p (parse "d{34}")
       ~inputs:[ String.make 34 'd'; String.make 33 'd'; String.make 35 'd' ])

let lines_exn r = Option.get (Rewrite.to_lines ~max_states:64 ~max_lines:16 r)

let test_to_lines_simple () =
  let ls = lines_exn (parse "abc") in
  check int "one line" 1 (List.length ls);
  check (list int) "three states" [ 3 ] (List.map Array.length ls)

let test_to_lines_example_4_4 () =
  (* a(b{1,2}|c)e -> abe | abbe | ace *)
  let ls = lines_exn (parse "a(b{1,2}|c)e") in
  check int "three lines" 3 (List.length ls);
  let as_strings =
    List.map (fun l -> String.concat "" (Array.to_list (Array.map Charclass.to_string l))) ls
    |> List.sort compare
  in
  check (list string) "expected lines" [ "abbe"; "abe"; "ace" ] as_strings

let test_to_lines_optional_suffix () =
  (* a[bc].d? -> a[bc]. | a[bc].d  (hardware single-final form) *)
  let ls = lines_exn (parse "a[bc].d?") in
  check int "two lines" 2 (List.length ls);
  check (list int) "seven states" [ 3; 4 ] (List.sort compare (List.map Array.length ls))

let test_to_lines_rejects () =
  check bool "star rejected" true
    (Rewrite.to_lines ~max_states:64 ~max_lines:16 (parse "ab*c") = None);
  check bool "unbounded rejected" true
    (Rewrite.to_lines ~max_states:64 ~max_lines:16 (parse "a{2,}") = None);
  check bool "blowup rejected" true
    (Rewrite.to_lines ~max_states:8 ~max_lines:16 (parse "(a|b)(a|b)(a|b)(a|b)") = None)

let test_to_lines_dedupes () =
  let ls = lines_exn (parse "ab|ab") in
  check int "duplicate lines merged" 1 (List.length ls)

(* Properties: every rewrite preserves the language w.r.t. the NFA engine. *)

let gen_with_input = QCheck2.Gen.pair (Gen.gen_ast ~max_bound:4 ()) Gen.gen_input

let print_pair (r, s) = Printf.sprintf "%s on %S" (Gen.ast_print r) s

let prop_preserves name rewrite =
  QCheck2.Test.make ~name ~count:250 ~print:print_pair gen_with_input (fun (r, input) ->
      let a = Glushkov.compile r and b = Glushkov.compile (rewrite r) in
      Nfa.match_ends a input = Nfa.match_ends b input)

let prop_unfold_preserves = prop_preserves "unfold_all preserves language" Rewrite.unfold_all

let prop_unfold_nbva_preserves =
  prop_preserves "unfold_for_nbva preserves language" (Rewrite.unfold_for_nbva ~threshold:3)

let prop_split_preserves =
  prop_preserves "split_bounded preserves language" Rewrite.split_bounded

let prop_pad_preserves =
  prop_preserves "pad_to_depth preserves language" (Rewrite.pad_to_depth ~depth:4)

let prop_lines_preserve =
  QCheck2.Test.make ~name:"to_lines preserves language" ~count:250 ~print:print_pair
    gen_with_input (fun (r, input) ->
      match Rewrite.to_lines ~max_states:512 ~max_lines:128 r with
      | None -> true
      | Some lines ->
          let nfa = Glushkov.compile r in
          let line_nfas = List.map Gen.line_nfa lines in
          let merged =
            List.sort_uniq compare (List.concat_map (fun n -> Nfa.match_ends n input) line_nfas)
          in
          Nfa.match_ends nfa input = merged)

let suite =
  [
    test_case "unfold_all" `Quick test_unfold_all;
    test_case "unfolding (paper example 4.1)" `Quick test_unfold_example_4_1;
    test_case "non-class bodies always unfold" `Quick test_unfold_non_class_body;
    test_case "split_bounded (paper example 4.2)" `Quick test_split_bounded;
    test_case "pad_to_depth (paper example 4.2)" `Quick test_pad_to_depth;
    test_case "to_lines: simple" `Quick test_to_lines_simple;
    test_case "to_lines (paper example 4.4)" `Quick test_to_lines_example_4_4;
    test_case "to_lines: optional suffix" `Quick test_to_lines_optional_suffix;
    test_case "to_lines: rejections" `Quick test_to_lines_rejects;
    test_case "to_lines: dedupe" `Quick test_to_lines_dedupes;
    QCheck_alcotest.to_alcotest prop_unfold_preserves;
    QCheck_alcotest.to_alcotest prop_unfold_nbva_preserves;
    QCheck_alcotest.to_alcotest prop_split_preserves;
    QCheck_alcotest.to_alcotest prop_pad_preserves;
    QCheck_alcotest.to_alcotest prop_lines_preserve;
  ]
