open Alcotest

let cc = Charclass.singleton
let line_of s = Array.init (String.length s) (fun i -> cc s.[i])

let test_fig2_trace () =
  (* Paper Fig 2: a[bc].d? over input abc; match after c (position 2). *)
  let l = Option.get (Lnfa.of_ast (Parser.parse_exn "a[bc].d?")) in
  let sa = Shift_and.of_lnfa l in
  let tr = Shift_and.trace sa "abc" in
  let states = List.map (fun (v, _) -> Format.asprintf "%a" Bitvec.pp v) tr in
  check (list string) "states per step (Fig 2 'states' row)" [ "0001"; "0010"; "0100" ] states;
  check (list bool) "output row" [ false; false; true ] (List.map snd tr)

let test_single_pattern () =
  let sa = Shift_and.of_bin [ line_of "abc" ] in
  check (list int) "abc" [ 2 ] (Shift_and.run sa "abc");
  check (list int) "xabcabc" [ 3; 6 ] (Shift_and.run sa "xabcabc");
  check (list int) "no match" [] (Shift_and.run sa "abd");
  check int "width" 3 (Shift_and.width sa)

let test_overlapping () =
  let sa = Shift_and.of_bin [ line_of "aa" ] in
  check (list int) "aaa overlaps" [ 1; 2 ] (Shift_and.run sa "aaa")

let test_classes () =
  let sa =
    Shift_and.of_bin [ [| cc 'a'; Charclass.of_string "bc"; Charclass.dot; cc 'd' |] ]
  in
  check (list int) "abxd" [ 3 ] (Shift_and.run sa "abxd");
  check (list int) "aczd" [ 3 ] (Shift_and.run sa "aczd");
  check (list int) "axxd" [] (Shift_and.run sa "axxd")

let test_bin_packing () =
  (* two patterns in one engine behave like the two run separately *)
  let bin = Shift_and.of_bin [ line_of "ab"; line_of "bc" ] in
  check int "patterns" 2 (Shift_and.num_patterns bin);
  check int "width" 4 (Shift_and.width bin);
  let separate input =
    List.sort_uniq compare
      (Shift_and.run (Shift_and.of_bin [ line_of "ab" ]) input
      @ Shift_and.run (Shift_and.of_bin [ line_of "bc" ]) input)
  in
  List.iter
    (fun input ->
      check (list int)
        (Printf.sprintf "bin = separate on %S" input)
        (separate input) (Shift_and.run bin input))
    [ "abc"; "bcab"; "aabbcc"; "xxx"; "ababab" ]

let test_bin_leakage_harmless () =
  (* a bit leaking from pattern 1's final into pattern 2's initial position
     must not create spurious matches: pattern 2 = "aa", pattern 1 = "ba" *)
  let bin = Shift_and.of_bin [ line_of "ba"; line_of "aa" ] in
  (* input "ba": pattern1 matches at 1; the leak would enter pattern2's
     initial position, which is re-armed anyway; "bax" must not match "aa" *)
  check (list int) "ba matches once" [ 1 ] (Shift_and.run bin "ba");
  check (list int) "baa: pattern1 at 1, pattern2 at 2" [ 1; 2 ] (Shift_and.run bin "baa")

let test_multi_final_lnfa () =
  (* LNFA with finals in the middle: a[bc].d? has finals at q2 and q3 *)
  let l = Option.get (Lnfa.of_ast (Parser.parse_exn "a[bc].d?")) in
  let sa = Shift_and.of_lnfa l in
  check (list int) "abxd" [ 2; 3 ] (Shift_and.run sa "abxd");
  check (list int) "abx" [ 2 ] (Shift_and.run sa "abx")

let test_wide_bin () =
  (* force multiple bitvec words: 40 patterns of width 4 = 160 bits *)
  let lines = List.init 40 (fun i -> line_of (Printf.sprintf "a%ccd" (Char.chr (97 + (i mod 26))))) in
  let bin = Shift_and.of_bin lines in
  check bool "wide" true (Shift_and.width bin > 124);
  check bool "aacd matches" true (Shift_and.run bin "aacd" <> [])

let prop_shift_and_equals_nfa =
  (* The key consistency check: Shift-And on each line set = NFA on it. *)
  QCheck2.Test.make ~name:"Shift-And agrees with NFA on random lines" ~count:300
    ~print:(fun (lines, s) ->
      Printf.sprintf "%d lines on %S" (List.length lines) s)
    QCheck2.Gen.(
      pair (list_size (int_range 1 5) (array_size (int_range 1 8) Gen.gen_cc)) Gen.gen_input)
    (fun (lines, input) ->
      let sa = Shift_and.of_bin lines in
      let nfa_matches =
        List.sort_uniq compare
          (List.concat_map (fun l -> Nfa.match_ends (Gen.line_nfa l) input) lines)
      in
      Shift_and.run sa input = nfa_matches)

let suite =
  [
    test_case "paper fig 2 trace" `Quick test_fig2_trace;
    test_case "single pattern" `Quick test_single_pattern;
    test_case "overlapping matches" `Quick test_overlapping;
    test_case "character classes" `Quick test_classes;
    test_case "bin packing" `Quick test_bin_packing;
    test_case "bin boundary leakage is harmless" `Quick test_bin_leakage_harmless;
    test_case "multi-final LNFA" `Quick test_multi_final_lnfa;
    test_case "wide bins" `Quick test_wide_bin;
    QCheck_alcotest.to_alcotest prop_shift_and_equals_nfa;
  ]
