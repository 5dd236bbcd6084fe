open Alcotest

let parse = Parser.parse_exn
let compile ?(threshold = 2) s = Nbva.compile ~threshold (parse s)

let test_example_2_2 () =
  (* a.*bc{5}: NBVA with 4 control states; the c{5} state carries a BV *)
  let n = compile "a.*bc{5}" in
  check int "states" 4 (Nbva.num_states n);
  check int "one BV-STE" 1 (Nbva.num_bv_stes n);
  check int "5 bits" 5 (Nbva.total_bv_bits n);
  check (list int) "axxbccccc" [ 8 ] (Nbva.match_ends n "axxbccccc");
  check (list int) "too few" [] (Nbva.match_ends n "axxbcccc");
  (* a sixth c overflows the vector: no match at position 9 *)
  check (list int) "overflow" [ 8 ] (Nbva.match_ends n "axxbcccccc")

let test_example_3_1 () =
  (* b(a{7}|c{5})b from Fig 5 *)
  let n = compile "b(a{7}|c{5})b" in
  check int "states" 4 (Nbva.num_states n);
  check int "two BV-STEs" 2 (Nbva.num_bv_stes n);
  check (list int) "7 a's" [ 8 ] (Nbva.match_ends n "baaaaaaab");
  check (list int) "5 c's" [ 6 ] (Nbva.match_ends n "bcccccb");
  check (list int) "6 c's: overflow deactivates" [] (Nbva.match_ends n "bccccccb");
  (* the Fig 5 walkthrough: ccccccc then baaaaaaab *)
  check (list int) "fig 5 input" [ 15 ] (Nbva.match_ends n "cccccccbaaaaaaab")

let test_optional_run () =
  (* c{0,3} via rAll; b c{0,3} d *)
  let n = compile "bc{0,3}d" in
  check int "one BV-STE" 1 (Nbva.num_bv_stes n);
  List.iter
    (fun (input, expect) -> check (list int) input expect (Nbva.match_ends n input))
    [ ("bd", [ 1 ]); ("bcd", [ 2 ]); ("bccd", [ 3 ]); ("bcccd", [ 4 ]); ("bccccd", []) ]

let test_split_range () =
  (* b{2,5} = b{2} then b{0,3}: both pieces BVs *)
  let n = compile "ab{2,5}c" in
  check int "two BV-STEs" 2 (Nbva.num_bv_stes n);
  List.iter
    (fun (input, expect) -> check (list int) input expect (Nbva.match_ends n input))
    [
      ("abc", []);
      ("abbc", [ 3 ]);
      ("abbbbbc", [ 6 ]);
      ("abbbbbbc", []);
      ("xabbbc", [ 5 ]);
    ]

let test_initial_bv () =
  (* regex starting with a repetition: every position can start a run *)
  let n = compile "a{3}b" in
  check (list int) "aaab" [ 3 ] (Nbva.match_ends n "aaab");
  check (list int) "aaaab (second run)" [ 4 ] (Nbva.match_ends n "aaaab");
  check (list int) "aab" [] (Nbva.match_ends n "aab")

let test_repeated_bv_reentry () =
  (* (a{2}b)+ : the BV-STE is re-entered after each completion *)
  let n = compile "(a{2}b)+" in
  check (list int) "aab aab" [ 2; 5 ] (Nbva.match_ends n "aabaab");
  check (list int) "broken" [ 2 ] (Nbva.match_ends n "aabab")

let test_mismatch_clears () =
  let n = compile "a{4}z" in
  (* interrupting the a-run must reset the counter *)
  check (list int) "aaxaaz: run broken" [] (Nbva.match_ends n "aaxaaz");
  check (list int) "aaaaz after restart" [ 7 ] (Nbva.match_ends n "aaxaaaaz")

let test_threshold_controls_compression () =
  let small = Nbva.compile ~threshold:10 (parse "a{4}b") in
  check int "below threshold: unfolded" 0 (Nbva.num_bv_stes small);
  check int "below threshold: 5 plain states" 5 (Nbva.num_states small);
  let big = Nbva.compile ~threshold:4 (parse "a{4}b") in
  check int "at threshold: compressed" 1 (Nbva.num_bv_stes big);
  check int "2 control states" 2 (Nbva.num_states big)

let test_bv_activity () =
  let n = compile "xa{5}" in
  let st = Nbva.start n in
  ignore (Nbva.step n st 'x');
  check int "no BV active yet" 0 (Nbva.bv_active_count n st);
  ignore (Nbva.step n st 'a');
  check int "BV active" 1 (Nbva.bv_active_count n st);
  ignore (Nbva.step n st 'z');
  check int "cleared on mismatch" 0 (Nbva.bv_active_count n st)

let test_of_ast_rejects_bad_residual () =
  check_raises "non-class residual"
    (Invalid_argument "Nbva.of_ast: residual repetition not of the form cc{m} or cc{0,k}")
    (fun () -> ignore (Nbva.of_ast (Ast.repeat (Parser.parse_exn "ab") 2 (Some 5))))

(* A table flip can raise a [masks] bit past the automaton width.  The
   kernel must cut it from the activation words: left there, it would
   index [succ_row] out of range at the next symbol. *)
let test_mask_bits_past_width () =
  let n = compile "abc" in
  let width = Nbva.num_states n in
  let masks = List.assoc "masks" (Nbva.plan_tables n) in
  Array.iteri (fun i w -> masks.(i) <- w lor (1 lsl 61)) masks;
  let st = Nbva.start n in
  let words, off = Nbva.active_slice st in
  ignore (Nbva.step n st 'x');
  check int "no activation bit at or past the width" 0 (words.(off) lsr width);
  check int "no report from a bit past the width" 0 (Nbva.reports n st);
  (match Nbva.step n st 'x' with
  | _ -> ()
  | exception Invalid_argument msg -> failf "second step read out of range: %s" msg);
  check int "still none after step 2" 0 (words.(off) lsr width);
  check (list int) "bits below the width still match" [ 3 ] (Nbva.match_ends n "xabc")

(* The idle fast path's wake table is exact: from the zero state, one
   reference step leaves a live word non-zero iff the byte wakes the
   automaton, and [idle] agrees with the reference kernel's view. *)
let prop_wake_exact =
  QCheck2.Test.make ~name:"wake c <=> one reference step from zero leaves live state"
    ~count:300
    ~print:(fun (r, threshold) -> Printf.sprintf "%s (threshold %d)" (Gen.ast_print r) threshold)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:5 ()) (int_range 2 4))
    (fun (r, threshold) ->
      let t = Nbva.compile ~threshold r in
      List.for_all
        (fun b ->
          let c = Char.chr b in
          let st = Nbva.start t in
          Nbva.idle st
          &&
          (ignore (Nbva.step_reference t st c);
           let live =
             (not (Bitvec.is_zero (Nbva.outputs st)))
             || Array.exists
                  (function Some v -> not (Bitvec.is_zero v) | None -> false)
                  (Nbva.vectors st)
           in
           Nbva.wakes t c = live && Nbva.idle st = not live))
        (List.init 256 Fun.id))

(* The central equivalence: NBVA with any threshold matches the plain NFA
   semantics of the same regex. *)
let prop_nbva_equals_nfa =
  QCheck2.Test.make ~name:"NBVA agrees with NFA (threshold 2)" ~count:400
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:5 ()) Gen.gen_input)
    (fun (r, input) ->
      let nfa = Glushkov.compile r in
      let nbva = Nbva.compile ~threshold:2 r in
      Nfa.match_ends nfa input = Nbva.match_ends nbva input)

let prop_nbva_threshold_irrelevant =
  QCheck2.Test.make ~name:"NBVA result independent of threshold" ~count:200
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:5 ()) Gen.gen_input)
    (fun (r, input) ->
      let a = Nbva.compile ~threshold:2 r in
      let b = Nbva.compile ~threshold:4 r in
      Nbva.match_ends a input = Nbva.match_ends b input)

let suite =
  [
    test_case "paper example 2.2" `Quick test_example_2_2;
    test_case "paper example 3.1 (fig 5)" `Quick test_example_3_1;
    test_case "optional run (rAll)" `Quick test_optional_run;
    test_case "range split (r then rAll)" `Quick test_split_range;
    test_case "initial BV-STE" `Quick test_initial_bv;
    test_case "BV re-entry under plus" `Quick test_repeated_bv_reentry;
    test_case "mismatch clears the vector" `Quick test_mismatch_clears;
    test_case "threshold controls compression" `Quick test_threshold_controls_compression;
    test_case "BV activity tracking" `Quick test_bv_activity;
    test_case "of_ast input validation" `Quick test_of_ast_rejects_bad_residual;
    test_case "mask bits past the width never reach the activation" `Quick
      test_mask_bits_past_width;
    QCheck_alcotest.to_alcotest prop_wake_exact;
    QCheck_alcotest.to_alcotest prop_nbva_equals_nfa;
    QCheck_alcotest.to_alcotest prop_nbva_threshold_irrelevant;
  ]
