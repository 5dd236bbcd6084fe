open Alcotest

let check_bool = check bool

let test_empty_full () =
  check_bool "empty has no members" true (Charclass.is_empty Charclass.empty);
  check_bool "full is full" true (Charclass.is_full Charclass.full);
  check int "full cardinal" 256 (Charclass.cardinal Charclass.full);
  check int "empty cardinal" 0 (Charclass.cardinal Charclass.empty);
  for b = 0 to 255 do
    check_bool "full mem" true (Charclass.mem_byte Charclass.full b);
    check_bool "empty mem" false (Charclass.mem_byte Charclass.empty b)
  done

let test_singleton () =
  let cc = Charclass.singleton 'x' in
  check int "cardinal" 1 (Charclass.cardinal cc);
  check_bool "member" true (Charclass.mem cc 'x');
  check_bool "non-member" false (Charclass.mem cc 'y');
  check (option char) "choose" (Some 'x') (Charclass.choose cc)

let test_range () =
  let cc = Charclass.of_range 'a' 'f' in
  check int "cardinal" 6 (Charclass.cardinal cc);
  check_bool "lo" true (Charclass.mem cc 'a');
  check_bool "hi" true (Charclass.mem cc 'f');
  check_bool "below" false (Charclass.mem cc '`');
  check_bool "above" false (Charclass.mem cc 'g');
  check_raises "inverted range" (Invalid_argument "Charclass.of_range") (fun () ->
      ignore (Charclass.of_range 'z' 'a'))

let test_range_across_words () =
  (* spans the 64-bit word boundaries at 63/64 and 127/128 *)
  let cc = Charclass.of_range '\x3e' '\x82' in
  check int "cardinal" (0x82 - 0x3e + 1) (Charclass.cardinal cc);
  check_bool "at 63" true (Charclass.mem_byte cc 63);
  check_bool "at 64" true (Charclass.mem_byte cc 64);
  check_bool "at 127" true (Charclass.mem_byte cc 127);
  check_bool "at 128" true (Charclass.mem_byte cc 128);
  check_bool "at 0x83" false (Charclass.mem_byte cc 0x83)

let test_boolean_algebra () =
  let a = Charclass.of_range 'a' 'm' and b = Charclass.of_range 'h' 'z' in
  check int "union" 26 (Charclass.cardinal (Charclass.union a b));
  check_bool "complement round-trip" true
    (Charclass.equal a (Charclass.complement (Charclass.complement a)));
  let neither = Charclass.complement (Charclass.union a b) in
  check_bool "de morgan" true
    (List.for_all
       (fun x -> Charclass.mem_byte neither x = not (Charclass.mem_byte a x || Charclass.mem_byte b x))
       (List.init 256 Fun.id))

let test_iteration () =
  let cc = Charclass.of_string "zab" in
  check (list int) "sorted members" [ 97; 98; 122 ] (Charclass.to_bytes cc);
  check int "fold count" 3 (Charclass.fold (fun _ acc -> acc + 1) cc 0)

let test_predefined () =
  check int "digit" 10 (Charclass.cardinal Charclass.digit);
  check int "word" 63 (Charclass.cardinal Charclass.word);
  check_bool "space has tab" true (Charclass.mem Charclass.space '\t');
  check_bool "dot excludes newline" false (Charclass.mem Charclass.dot '\n');
  check int "dot size" 255 (Charclass.cardinal Charclass.dot)

let test_printing_roundtrip () =
  let cases =
    [
      Charclass.singleton 'a';
      Charclass.of_range '0' '9';
      Charclass.of_string "abc_-";
      Charclass.complement (Charclass.of_string "\\x");
      Charclass.dot;
      Charclass.full;
      Charclass.of_byte 0;
      Charclass.of_byte 255;
    ]
  in
  List.iter
    (fun cc ->
      let s = Charclass.to_string cc in
      match Parser.parse_exn s with
      | Ast.Class cc' ->
          check_bool (Printf.sprintf "roundtrip %s" s) true (Charclass.equal cc cc')
      | _ -> fail (Printf.sprintf "%s did not parse to a class" s))
    cases

let prop_union_commutes =
  QCheck2.Test.make ~name:"union commutes" ~count:200
    QCheck2.Gen.(pair Gen.gen_cc Gen.gen_cc)
    (fun (a, b) -> Charclass.equal (Charclass.union a b) (Charclass.union b a))

let prop_mem_union =
  QCheck2.Test.make ~name:"mem distributes over union" ~count:200
    QCheck2.Gen.(triple Gen.gen_cc Gen.gen_cc (int_bound 255))
    (fun (a, b, byte) ->
      Charclass.mem_byte (Charclass.union a b) byte
      = (Charclass.mem_byte a byte || Charclass.mem_byte b byte))

let prop_iter_members =
  QCheck2.Test.make ~name:"iter visits exactly the members, ascending" ~count:300 Gen.gen_any_cc
    (fun cc -> Charclass.to_bytes cc = List.filter (Charclass.mem_byte cc) (List.init 256 Fun.id))

let suite =
  [
    test_case "empty and full" `Quick test_empty_full;
    test_case "singleton" `Quick test_singleton;
    test_case "range" `Quick test_range;
    test_case "range across word boundaries" `Quick test_range_across_words;
    test_case "boolean algebra" `Quick test_boolean_algebra;
    test_case "iteration order" `Quick test_iteration;
    test_case "predefined classes" `Quick test_predefined;
    test_case "print/parse roundtrip" `Quick test_printing_roundtrip;
    QCheck_alcotest.to_alcotest prop_union_commutes;
    QCheck_alcotest.to_alcotest prop_mem_union;
    QCheck_alcotest.to_alcotest prop_iter_members;
  ]
