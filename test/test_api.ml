(* The public Rap facade and the evaluation scaffolding. *)

open Alcotest

let test_matcher_engines () =
  let kind s =
    match Rap.engine_kind (Rap.matcher_exn s) with
    | Rap.Nfa_engine -> "nfa"
    | Rap.Nbva_engine -> "nbva"
    | Rap.Shift_and_engine -> "sa"
  in
  check string "line" "sa" (kind "abcdef");
  check string "counted" "nbva" (kind "a{50}b");
  check string "star" "nfa" (kind "a.*b")

let test_matcher_agreement () =
  (* all three engines implement the same semantics *)
  let input = "xxabcdefyy" ^ String.make 50 'a' ^ "b" ^ "a--b" in
  List.iter
    (fun src ->
      let got = Rap.find_all (Rap.matcher_exn src) input in
      let reference = Nfa.match_ends (Glushkov.compile (Parser.parse_exn src)) input in
      check (list int) src reference got)
    [ "abcdef"; "a{50}b"; "a.*b"; "a[bc]?d" ]

let test_matcher_errors () =
  check bool "parse error surfaces" true
    (match Rap.matcher "(unclosed" with Error _ -> true | Ok _ -> false);
  check_raises "matcher_exn raises"
    (Invalid_argument "Rap.matcher: trailing garbage at offset 1") (fun () ->
      ignore (Rap.matcher_exn "a)b"))

let test_simulate_api () =
  match Rap.simulate ~regexes:[ "hello"; "w{20}x" ] ~input:"say hello world" () with
  | Ok r ->
      check bool "one match reported" true (r.Runner.match_reports >= 1);
      check bool "metrics populated" true
        (Runner.energy_efficiency_gchs_per_w r > 0.
        && Runner.compute_density_gchs_per_mm2 r > 0.)
  | Error e -> fail e

let test_simulate_errors () =
  check bool "no parseable regex" true
    (match Rap.simulate ~regexes:[ "(((" ] ~input:"x" () with Error _ -> true | Ok _ -> false);
  match Rap.simulate ~regexes:[ "a{99999}" ] ~input:"a" () with
  | Error e ->
      check bool "nothing placed: the error names the drop" true
        (Astring_contains.contains e "oversize")
  | Ok _ -> fail "a rule set with nothing placed must be an Error"

let test_simulate_drops_oversize () =
  match Rap.simulate ~regexes:[ "a{99999}"; "abc" ] ~input:"xxabcxx" () with
  | Ok r -> check int "abc still runs" 1 r.Runner.match_reports
  | Error e -> fail e

let env = { Experiments.chars = 800; scale = 1; jobs = 1 }

let test_fig1_rows () =
  let rows = Experiments.fig1 env in
  check int "seven rows" 7 (List.length rows);
  List.iter
    (fun r ->
      let total =
        r.Experiments.pct_nfa +. r.Experiments.pct_nbva +. r.Experiments.pct_lnfa
      in
      check (float 0.01) (r.Experiments.suite ^ " sums to 100") 100. total)
    rows

let test_platforms () =
  let gpu = Platforms.gpu_hybridsa ~rap_power_w:0.5 ~rap_throughput:2.0 ~suite:"Snort" in
  check bool "GPU draws much more power" true (gpu.Platforms.power_w > 4.);
  check bool "GPU is slower" true (gpu.Platforms.throughput_gchs < 0.5);
  let cpu = Platforms.cpu_hyperscan ~rap_power_w:0.5 ~rap_throughput:2.0 ~suite:"Snort" in
  check bool "CPU power floor" true (cpu.Platforms.power_w >= 30.);
  check bool "hAP rows exist" true (Platforms.hap_fpga ~suite:"Brill" <> None);
  check bool "hAP unknown suite" true (Platforms.hap_fpga ~suite:"Quux" = None);
  check (float 1e-9) "efficiency" 0.1
    (Platforms.energy_efficiency { Platforms.name = "x"; power_w = 10.; throughput_gchs = 1. })

let test_texttable () =
  let t = Texttable.create ~header:[ "A"; "B" ] in
  Texttable.add_row t [ "one"; "1" ];
  Texttable.add_rule t;
  Texttable.add_row t [ "two"; "22" ];
  let s = Texttable.render t in
  check bool "contains header" true (Astring_contains.contains s "A");
  check bool "contains rows" true
    (Astring_contains.contains s "one" && Astring_contains.contains s "22");
  check string "float formatting" "3.14" (Texttable.cell_f 3.14159);
  check string "ratio formatting" "2.50x" (Texttable.cell_ratio 2.5);
  check string "small floats keep precision" "0.003" (Texttable.cell_f 0.00314)

let test_anchored_matching () =
  let m = Rap.matcher_exn "^abc" in
  check (list int) "anchored start matches at 0" [ 2 ] (Rap.find_all m "abcabc");
  check (list int) "anchored start rejects offsets" [] (Rap.find_all m "xabc");
  let e = Rap.matcher_exn "abc$" in
  check (list int) "anchored end keeps last" [ 5 ] (Rap.find_all e "abcabc");
  check (list int) "anchored end drops middle" [] (Rap.find_all e "abcx");
  let both = Rap.matcher_exn "^a+$" in
  check bool "full match" true (Rap.is_match both "aaaa");
  check bool "prefix rejected" false (Rap.is_match both "aaab")

let suite =
  [
    test_case "matcher engine selection" `Quick test_matcher_engines;
    test_case "matcher agreement across engines" `Quick test_matcher_agreement;
    test_case "matcher error handling" `Quick test_matcher_errors;
    test_case "simulate API" `Quick test_simulate_api;
    test_case "simulate error handling" `Quick test_simulate_errors;
    test_case "fig1 percentages" `Quick test_fig1_rows;
    test_case "platform operating points" `Quick test_platforms;
    test_case "text tables" `Quick test_texttable;
    test_case "anchored matching" `Quick test_anchored_matching;
    test_case "simulate drops an oversize rule" `Quick test_simulate_drops_oversize;
  ]
