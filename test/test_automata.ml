(* Glushkov construction, NFA execution, LNFA detection, and the worked
   examples from the paper (Examples 2.1-2.3, Fig 2, Fig 3). *)

open Alcotest

let nfa_of s = Glushkov.compile (Parser.parse_exn s)
let ends re input = Nfa.match_ends (nfa_of re) input

let test_example_2_1 () =
  (* a([bc]|b.*d) — 5 states, q1 and q4 final *)
  let nfa = nfa_of "a([bc]|b.*d)" in
  check int "states" 5 (Nfa.num_states nfa);
  check (list int) "ab matches at 1" [ 1 ] (ends "a([bc]|b.*d)" "ab");
  check (list int) "ac matches at 1" [ 1 ] (ends "a([bc]|b.*d)" "ac");
  check (list int) "abxxd matches at 1 and 4" [ 1; 4 ] (ends "a([bc]|b.*d)" "abxxd");
  check (list int) "ad no match" [] (ends "a([bc]|b.*d)" "ad")

let test_example_2_3_lnfa () =
  (* a[bc].d? — homogeneous automaton is a line *)
  let nfa = nfa_of "a[bc].d?" in
  check int "states" 4 (Nfa.num_states nfa);
  (match Lnfa.of_nfa nfa with
  | None -> fail "a[bc].d? should be an LNFA"
  | Some l ->
      check int "line length" 4 (Array.length l.Lnfa.labels);
      check bool "q2 final" true l.Lnfa.finals.(2);
      check bool "q3 final" true l.Lnfa.finals.(3));
  check (list int) "abc matches at 2 (Fig 2)" [ 2 ] (ends "a[bc].d?" "abc")

let test_fig3_unfolded () =
  (* a(.a){3}b unfolds to a.a.a.ab: 9 states, linear *)
  let unfolded = Rewrite.unfold_all (Parser.parse_exn "a(.a){3}b") in
  let nfa = Glushkov.compile_unfolded unfolded in
  check int "states" 8 (Nfa.num_states nfa);
  check bool "is linear" true (Nfa.is_linear nfa <> None);
  check (list int) "axaxaxab" [ 7 ] (Nfa.match_ends nfa "axaxaxab");
  check (list int) "no match" [] (Nfa.match_ends nfa "axaxab")

let test_unanchored_semantics () =
  check (list int) "match in middle" [ 2 ] (ends "bc" "abcd");
  check (list int) "overlapping attempts" [ 1; 2; 3 ] (ends "a+" "baaad");
  check (list int) "every position" [ 0; 1; 2 ] (ends "." "xyz")

let test_star_and_alt () =
  check (list int) "a(b|c)*d" [ 4; 7 ] (ends "a(b|c)*d" "abcbdabd");
  check bool "empty regex matches nothing (no empty reports)" true
    (ends "a?" "bbb" = []);
  check (list int) "nested star" [ 0; 1; 2; 3 ] (ends "(ab?)*a?" "aaba")

let test_accepts_empty () =
  check bool "a? accepts empty" true (nfa_of "a?").Nfa.accepts_empty;
  check bool "a does not" false (nfa_of "a").Nfa.accepts_empty;
  check bool "a* does" true (nfa_of "a*").Nfa.accepts_empty

let test_is_linear_negative () =
  check bool "alternation is not linear" true (Nfa.is_linear (nfa_of "ab|cd") = None);
  check bool "star is not linear" true (Nfa.is_linear (nfa_of "ab*c") = None);
  check bool "abc is linear" true (Nfa.is_linear (nfa_of "abc") <> None)

let test_nfa_line () =
  let l = Gen.line_nfa [| Charclass.singleton 'a'; Charclass.singleton 'b' |] in
  check bool "is linear" true (Nfa.is_linear l <> None);
  check (list int) "ab" [ 1 ] (Nfa.match_ends l "ab")

let test_activity_stats () =
  let r = Nfa.run (nfa_of "a*") "aaa" in
  check int "steps recorded" 3 (Array.length r.Nfa.active_per_step);
  check bool "activity grows then saturates" true (r.Nfa.active_per_step.(0) >= 1)

(* Property: Glushkov state count equals the number of class occurrences. *)
let prop_glushkov_size =
  QCheck2.Test.make ~name:"Glushkov states = unfolded literal width" ~count:300
    ~print:Gen.ast_print (Gen.gen_ast ())
    (fun r ->
      let unfolded = Rewrite.unfold_all r in
      Nfa.num_states (Glushkov.compile r) = Ast.literal_width unfolded)

(* Property: NFA matching is consistent with a naive backtracking matcher on
   small inputs. *)
let rec naive_match r input pos k =
  (* k: continuation taking the end position *)
  match r with
  | Ast.Epsilon -> k pos
  | Ast.Class cc -> pos < String.length input && Charclass.mem cc input.[pos] && k (pos + 1)
  | Ast.Concat (a, b) -> naive_match a input pos (fun p -> naive_match b input p k)
  | Ast.Alt (a, b) -> naive_match a input pos k || naive_match b input pos k
  | Ast.Star a ->
      let rec loop p visited =
        k p
        || (not (List.mem p visited))
           && naive_match a input p (fun p' -> p' > p && loop p' (p :: visited))
      in
      loop pos []
  | Ast.Repeat (a, m, n) ->
      let rec loop p i =
        let enough = i >= m in
        let can_more = match n with None -> true | Some n -> i < n in
        (enough && k p)
        || (can_more && naive_match a input p (fun p' -> (p' > p || i < m) && loop p' (i + 1)))
      in
      loop pos 0

let naive_ends r input =
  let acc = ref [] in
  for start = 0 to String.length input - 1 do
    for stop = start + 1 to String.length input do
      if
        (not (List.mem (stop - 1) !acc))
        && naive_match r input start (fun p -> p = stop)
      then acc := (stop - 1) :: !acc
    done
  done;
  List.sort_uniq compare !acc

let prop_nfa_vs_naive =
  QCheck2.Test.make ~name:"NFA agrees with naive backtracking matcher" ~count:300
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:3 ()) Gen.gen_input)
    (fun (r, input) ->
      let input = if String.length input > 12 then String.sub input 0 12 else input in
      Nfa.match_ends (Glushkov.compile r) input = naive_ends r input)

let suite =
  [
    test_case "paper example 2.1" `Quick test_example_2_1;
    test_case "paper example 2.3 (LNFA)" `Quick test_example_2_3_lnfa;
    test_case "paper fig 3 unfolding" `Quick test_fig3_unfolded;
    test_case "unanchored matching" `Quick test_unanchored_semantics;
    test_case "star and alternation" `Quick test_star_and_alt;
    test_case "nullability" `Quick test_accepts_empty;
    test_case "linearity detection" `Quick test_is_linear_negative;
    test_case "line constructor" `Quick test_nfa_line;
    test_case "activity statistics" `Quick test_activity_stats;
    QCheck_alcotest.to_alcotest prop_glushkov_size;
    QCheck_alcotest.to_alcotest prop_nfa_vs_naive;
  ]
