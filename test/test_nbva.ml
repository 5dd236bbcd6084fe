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
  let bv_active () =
    Array.fold_left
      (fun acc v -> match v with Some v when not (Bitvec.is_zero v) -> acc + 1 | _ -> acc)
      0 (Nbva.vectors st)
  in
  ignore (Nbva.step n st 'x');
  check int "no BV active yet" 0 (bv_active ());
  ignore (Nbva.step n st 'a');
  check int "BV active" 1 (bv_active ());
  ignore (Nbva.step n st 'z');
  check int "cleared on mismatch" 0 (bv_active ())

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
  let word () = Bitvec.get_word (Nbva.outputs st) 0 in
  ignore (Nbva.step n st 'x');
  check int "no activation bit at or past the width" 0 (word () lsr width);
  check int "no report from a bit past the width" 0 (Nbva.reports n st);
  (match Nbva.step n st 'x' with
  | _ -> ()
  | exception Invalid_argument msg -> failf "second step read out of range: %s" msg);
  check int "still none after step 2" 0 (word () lsr width);
  check (list int) "bits below the width still match" [ 3 ] (Nbva.match_ends n "xabc")

(* [bv_states] is a sealed plan table that a fault flip can rewrite.  An
   in-range entry naming a Plain STE has no vector to update: the kernel
   must raise the same typed corrupt-table error as for an out-of-range
   index, which the integrity layer attributes and heals. *)
let test_bv_states_naming_plain_ste () =
  let n = compile "a{30}b" in
  let bv_states = List.assoc "bv_states" (Nbva.plan_tables n) in
  check bool "one BV-STE" true (Array.length bv_states = 1);
  let plain = ref (-1) in
  Array.iteri (fun q -> function Nbva.Plain _ -> plain := q | Nbva.Bv _ -> ()) n.Nbva.stes;
  check bool "a Plain STE exists" true (!plain >= 0);
  bv_states.(0) <- !plain;
  let st = Nbva.start n in
  check_raises "typed corrupt-table error"
    (Invalid_argument "Nbva: corrupt plan table (index out of range)")
    (fun () -> ignore (Nbva.step n st 'a'))

(* The BV tables the kernel indexes with: every corrupted word of
   [bv_vecs] (a vector's arena offset, its width, its read position),
   and every flipped bit of the mask table, which holds the BV-STE row
   the candidate path ranks through, either leaves the step in bounds
   or raises the typed corrupt-table error, never a wild read; and the
   seal check names the corrupted region.  The input runs vectors live
   and lets them die, so both the live-vector and the candidate path
   read the corrupted tables. *)
let test_bv_tables_corruption_typed () =
  let params = Program.default_params in
  let e =
    Engine.of_nbva_unit (Nbva_compile.compile ~params (parse "x[ab]{5,30}y(c{10}|d{0,7})z"))
  in
  let fresh = Engine.snapshot e in
  let input = "qxababababyccccccccccz xaaaaaabbbbbydddz xabx xbbbbbbbbbbbbbbbbbby" in
  let table name =
    match List.find_opt (fun r -> Engine.region_name r = name) (Engine.immutable_regions e) with
    | Some (Engine.R_words (_, a)) -> a
    | _ -> failf "no %s table" name
  in
  let typed label =
    Engine.restore e fresh;
    match String.iter (fun c -> ignore (Engine.step e c)) input with
    | () -> ()
    | exception Invalid_argument msg when msg = "Nbva: corrupt plan table (index out of range)" ->
        ()
    | exception ex -> failf "%s: %s" label (Printexc.to_string ex)
  in
  let seal = Integrity.seal [| e |] and cfg = Integrity.continuous_config () in
  let trips name =
    match Integrity.check cfg ~array_id:0 ~sym:0 seal [| e |] with
    | () -> failf "the seal missed a corrupted %s" name
    | exception Sim_error.Error (Sim_error.Integrity_violation { region; _ }) ->
        check string "the seal names the region" name region
  in
  let bv_vecs = table "bv_vecs" in
  check bool "three BV-STEs" true (Array.length bv_vecs = 9);
  Array.iteri
    (fun i w ->
      List.iter
        (fun bad ->
          if bad <> w then begin
            bv_vecs.(i) <- bad;
            typed (Printf.sprintf "bv_vecs.(%d) = %d" i bad);
            trips "bv_vecs";
            bv_vecs.(i) <- w
          end)
        [ -1; 0; 1; w - 1; w + 1; w + 64; max_int; min_int ])
    (Array.copy bv_vecs);
  let masks = table "masks" in
  Array.iteri
    (fun i w ->
      for b = 0 to Bitvec.bits_per_word - 1 do
        masks.(i) <- w lxor (1 lsl b);
        typed (Printf.sprintf "masks.(%d) bit %d" i b);
        masks.(i) <- w
      done)
    (Array.copy masks);
  masks.(0) <- masks.(0) lxor 1;
  trips "masks";
  masks.(0) <- masks.(0) lxor 1;
  let ends e =
    List.filter_map
      (fun i -> if (Engine.step e input.[i]).Engine.reports > 0 then Some i else None)
      (List.init (String.length input) Fun.id)
  in
  Engine.restore e fresh;
  let clean =
    Engine.of_nbva_unit (Nbva_compile.compile ~params (parse "x[ab]{5,30}y(c{10}|d{0,7})z"))
  in
  let want = ends clean in
  check bool "the input matches" true (want <> []);
  check (list int) "restored tables match a fresh compile" want (ends e)

(* The reference kernel raises the same typed error when a BV-STE has
   no vector in the run state: here a state started from "ab", which
   has as many states as "a{30}b" but no BV-STE. *)
let test_reference_missing_vector () =
  let t = compile "a{30}b" and other = compile "ab" in
  check int "same state count" (Nbva.num_states t) (Nbva.num_states other);
  check_raises "typed corrupt-table error"
    (Invalid_argument "Nbva: corrupt plan table (index out of range)")
    (fun () -> ignore (Nbva.step_reference t (Nbva.start other) 'a'))

(* The idle skip's wake table is exact: from the zero state, one
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
           (Bytes.get (Nbva.wake_bytes t) b <> '\000') = live && Nbva.idle st = not live))
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
    test_case "a bv_states entry naming a Plain STE is a typed error" `Quick
      test_bv_states_naming_plain_ste;
    test_case "corrupted BV tables are typed errors or seal trips" `Quick
      test_bv_tables_corruption_typed;
    test_case "the reference kernel's missing vector is a typed error" `Quick
      test_reference_missing_vector;
    QCheck_alcotest.to_alcotest prop_wake_exact;
    QCheck_alcotest.to_alcotest prop_nbva_equals_nfa;
    QCheck_alcotest.to_alcotest prop_nbva_threshold_irrelevant;
  ]
