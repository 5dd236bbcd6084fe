(* Workload generators: determinism, composition (Fig 1 targets), inputs. *)

open Alcotest

let params = Program.default_params

let test_determinism () =
  let a = Benchmarks.by_name "Snort" and b = Benchmarks.by_name "Snort" in
  check int "same count" (List.length a.Benchmarks.regexes) (List.length b.Benchmarks.regexes);
  List.iter2
    (fun (s1, _) (s2, _) -> check string "same regexes" s1 s2)
    a.Benchmarks.regexes b.Benchmarks.regexes;
  check string "same input"
    (a.Benchmarks.make_input ~chars:500)
    (b.Benchmarks.make_input ~chars:500)

let test_all_suites_present () =
  let names = List.map (fun (s : Benchmarks.t) -> s.Benchmarks.name) (Benchmarks.all ()) in
  check (list string) "paper order"
    [ "RegexLib"; "SpamAssassin"; "Snort"; "Suricata"; "Yara"; "ClamAV"; "Prosite" ]
    names;
  check bool "unknown raises" true
    (match Benchmarks.by_name "Nope" with
    | exception Not_found -> true
    | _ -> false)

let test_regexes_parse_back () =
  List.iter
    (fun (s : Benchmarks.t) ->
      List.iter
        (fun (src, ast) ->
          match Parser.parse_result src with
          | Ok p ->
              check bool
                (Printf.sprintf "%s: %s roundtrips" s.Benchmarks.name src)
                true
                (Ast.equal ast p.Parser.ast)
          | Error e -> fail (Printf.sprintf "%s: %s does not parse: %s" s.Benchmarks.name src e))
        (List.filteri (fun i _ -> i < 25) s.Benchmarks.regexes))
    (Benchmarks.all ())

let mode_share mode (s : Benchmarks.t) =
  let n = List.length s.Benchmarks.regexes in
  let k =
    List.length
      (List.filter (fun (_, ast) -> Mode_select.decide ~params ast = mode) s.Benchmarks.regexes)
  in
  100. *. float_of_int k /. float_of_int n

let test_fig1_composition () =
  (* the headline compositions of Fig 1 *)
  let clamav = Benchmarks.by_name "ClamAV" in
  check bool "ClamAV is >75% NBVA" true (mode_share Mode_select.Nbva_mode clamav > 75.);
  let prosite = Benchmarks.by_name "Prosite" in
  check bool "Prosite has no NBVA" true (mode_share Mode_select.Nbva_mode prosite = 0.);
  check bool "Prosite is >85% LNFA" true (mode_share Mode_select.Lnfa_mode prosite > 85.);
  let regexlib = Benchmarks.by_name "RegexLib" in
  check bool "RegexLib is NFA-heavy" true (mode_share Mode_select.Nfa_mode regexlib > 45.);
  let spam = Benchmarks.by_name "SpamAssassin" in
  check bool "SpamAssassin is LNFA-majority" true (mode_share Mode_select.Lnfa_mode spam > 50.);
  let snort = Benchmarks.by_name "Snort" in
  let nfa = mode_share Mode_select.Nfa_mode snort in
  let nbva = mode_share Mode_select.Nbva_mode snort in
  check bool "Snort balances NFA and NBVA" true (Float.abs (nfa -. nbva) < 25.)

let test_input_properties () =
  let s = Benchmarks.by_name "ClamAV" in
  let input = s.Benchmarks.make_input ~chars:4_000 in
  check int "length honoured" 4_000 (String.length input);
  (* hex alphabet for binary suites (fragments may add pattern bytes) *)
  let hexish = ref 0 in
  String.iter
    (fun c -> if (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') then incr hexish)
    input;
  check bool "mostly hex alphabet" true (float_of_int !hexish > 0.9 *. 4000.)

let test_scale () =
  let s1 = Benchmarks.by_name ~scale:1 "Yara" and s2 = Benchmarks.by_name ~scale:2 "Yara" in
  check int "scale doubles the rule count"
    (2 * List.length s1.Benchmarks.regexes)
    (List.length s2.Benchmarks.regexes)

let test_anmlzoo () =
  let suites = Benchmarks.anmlzoo () in
  let names = List.map (fun (s : Benchmarks.t) -> s.Benchmarks.name) suites in
  check (list string) "table 4 suites" [ "Brill"; "ClamAV"; "Dotstar"; "PowerEN"; "Snort" ] names;
  (* ANMLZoo rules are pre-unfolded except ClamAV *)
  List.iter
    (fun (s : Benchmarks.t) ->
      let with_bounds =
        List.length
          (List.filter (fun (_, ast) -> Ast.has_bounded_repetition ast) s.Benchmarks.regexes)
      in
      if s.Benchmarks.name = "ClamAV" then
        check bool "ClamAV keeps bounded repetitions" true (with_bounds > 0)
      else
        check bool (s.Benchmarks.name ^ " is unfolded-only or star-based") true
          (with_bounds = 0))
    suites

let test_single_code_share () =
  (* the paper: 84% of LNFAs fit the CAM path; our suites should be in
     that ballpark when pooled *)
  let lines =
    List.concat_map
      (fun (s : Benchmarks.t) ->
        List.filter_map
          (fun (_, ast) ->
            if Mode_select.decide ~params ast <> Mode_select.Lnfa_mode then None
            else
              match Mode_select.compile_as Mode_select.Lnfa_mode ~params ~source:"x" ast with
              | Some { Program.kind = Program.U_lnfa u; _ } -> Some u.Program.lines
              | _ -> None)
          s.Benchmarks.regexes)
      (Benchmarks.all ())
    |> List.concat
  in
  let single = List.length (List.filter (fun l -> l.Program.single_code) lines) in
  let share = float_of_int single /. float_of_int (List.length lines) in
  check bool (Printf.sprintf "single-code share %.0f%% in [60, 97]" (100. *. share)) true
    (share > 0.6 && share < 0.97)

let test_distributions () =
  let st = Distributions.rng 1 in
  let v = Distributions.int_in st 3 7 in
  check bool "int_in range" true (v >= 3 && v <= 7);
  let w = Distributions.weighted st [ (1, `A); (0, `B) ] in
  check bool "weighted picks positive weight" true (w = `A);
  check_raises "weighted rejects empty" (Invalid_argument "Distributions.weighted") (fun () ->
      ignore (Distributions.weighted st []));
  let c = Distributions.protein_char st in
  check bool "protein char" true (String.contains "ACDEFGHIKLMNPQRSTVWY" c)

let suite =
  [
    test_case "determinism" `Quick test_determinism;
    test_case "all suites present" `Quick test_all_suites_present;
    test_case "generated regexes parse back" `Quick test_regexes_parse_back;
    test_case "fig 1 composition targets" `Quick test_fig1_composition;
    test_case "input stream properties" `Quick test_input_properties;
    test_case "scaling" `Quick test_scale;
    test_case "anmlzoo suites" `Quick test_anmlzoo;
    test_case "single-code share near the paper's 84%" `Quick test_single_code_share;
    test_case "distribution helpers" `Quick test_distributions;
  ]
