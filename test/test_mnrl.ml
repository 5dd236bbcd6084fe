(* JSON layer and MNRL-style automata interchange. *)

open Alcotest

let test_json_print_parse () =
  let v =
    Json.Obj
      [
        ("name", Json.String "q\"uo\\te\n");
        ("n", Json.Int 42);
        ("x", Json.Float 2.5);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
        ("empty", Json.Obj []);
      ]
  in
  let s = Json.to_string v in
  check bool "roundtrip compact" true (Json.of_string s = v);
  let p = Json.to_string ~pretty:true v in
  check bool "roundtrip pretty" true (Json.of_string p = v)

let test_json_parse_basics () =
  check bool "whitespace tolerated" true
    (Json.of_string "  { \"a\" : [ 1 , 2 ] }  " = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
  check bool "negative numbers" true (Json.of_string "-5" = Json.Int (-5));
  check bool "floats" true (Json.of_string "1.5e2" = Json.Float 150.);
  check bool "unicode escape" true (Json.of_string "\"\\u0041\"" = Json.String "A");
  List.iter
    (fun bad ->
      match Json.of_string_result bad with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "%S should not parse" bad))
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\":}"; "12 34"; "tru" ]

let test_json_accessors () =
  let v = Json.of_string "{\"a\": 1, \"b\": [true]}" in
  check bool "member int" true (Json.member "a" v = Some (Json.Int 1));
  check bool "missing member" true (Json.member "zzz" v = None);
  check bool "list accessor" true
    (Option.bind (Json.member "b" v) Json.to_list_opt = Some [ Json.Bool true ])

let roundtrip_nfa nfa =
  match Mnrl.file_of_string (Mnrl.file_to_string [ ("t", nfa) ]) with
  | Ok [ (_, nfa') ] -> nfa'
  | Ok _ -> fail "mnrl roundtrip changed the number of networks"
  | Error e -> fail ("mnrl roundtrip failed: " ^ e)

let test_mnrl_roundtrip_basic () =
  let nfa = Glushkov.compile (Parser.parse_exn "a([bc]|b.*d)") in
  let nfa' = roundtrip_nfa nfa in
  check int "states preserved" (Nfa.num_states nfa) (Nfa.num_states nfa');
  check bool "edges preserved" true (nfa.Nfa.succs = nfa'.Nfa.succs);
  List.iter
    (fun input ->
      check (list int)
        (Printf.sprintf "same matches on %S" input)
        (Nfa.match_ends nfa input) (Nfa.match_ends nfa' input))
    [ "ab"; "abxxd"; "ad"; "acab" ]

let test_mnrl_file () =
  let nets =
    [
      ("rule0", Glushkov.compile (Parser.parse_exn "abc"));
      ("rule1", Glushkov.compile (Parser.parse_exn "x[yz]+w"));
    ]
  in
  let s = Mnrl.file_to_string ~pretty:true nets in
  match Mnrl.file_of_string s with
  | Error e -> fail e
  | Ok nets' ->
      check (list string) "ids preserved" [ "rule0"; "rule1" ] (List.map fst nets');
      List.iter2
        (fun (_, a) (_, b) ->
          check (list int) "matches preserved" (Nfa.match_ends a "xyzw abc")
            (Nfa.match_ends b "xyzw abc"))
        nets nets'

let test_mnrl_save_load () =
  let path = Filename.temp_file "rap_mnrl" ".json" in
  let nets = [ ("sig", Glushkov.compile (Parser.parse_exn "virus")) ] in
  Mnrl.save ~path nets;
  (match Mnrl.load ~path with
  | Ok [ (id, nfa) ] ->
      check string "id" "sig" id;
      check (list int) "matches" [ 8 ] (Nfa.match_ends nfa "a novirus")
  | Ok _ -> fail "wrong shape"
  | Error e -> fail e);
  Sys.remove path;
  check bool "load missing file" true
    (match Mnrl.load ~path:"/nonexistent/x.json" with Error _ -> true | Ok _ -> false)

let test_mnrl_rejects_malformed () =
  List.iter
    (fun bad ->
      match Mnrl.file_of_string bad with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "%S should be rejected" bad))
    [
      "{}";
      "{\"networks\": [{\"id\": \"n\"}]}";
      "{\"networks\": [{\"id\": \"n\", \"nodes\": [{\"id\": \"q0\"}]}]}";
      (* connection to an unknown node *)
      "{\"networks\": [{\"id\": \"n\", \"nodes\": [{\"id\":\"q0\",\"enable\":\"onActivateIn\",\
       \"report\":false,\"attributes\":{\"symbolSet\":\"a\"},\
       \"outputConnections\":[{\"id\":\"nope\"}]}]}]}";
    ]

let prop_mnrl_roundtrip =
  QCheck2.Test.make ~name:"MNRL roundtrip preserves matching" ~count:100
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:4 ()) Gen.gen_input)
    (fun (r, input) ->
      let nfa = Glushkov.compile r in
      match Mnrl.file_of_string (Mnrl.file_to_string [ ("p", nfa) ]) with
      | Ok [ (_, nfa') ] -> Nfa.match_ends nfa input = Nfa.match_ends nfa' input
      | Ok _ | Error _ -> false)

let suite =
  [
    test_case "json print/parse roundtrip" `Quick test_json_print_parse;
    test_case "json parsing basics" `Quick test_json_parse_basics;
    test_case "json accessors" `Quick test_json_accessors;
    test_case "mnrl roundtrip" `Quick test_mnrl_roundtrip_basic;
    test_case "mnrl multi-network files" `Quick test_mnrl_file;
    test_case "mnrl save/load" `Quick test_mnrl_save_load;
    test_case "mnrl rejects malformed input" `Quick test_mnrl_rejects_malformed;
    QCheck_alcotest.to_alcotest prop_mnrl_roundtrip;
  ]
