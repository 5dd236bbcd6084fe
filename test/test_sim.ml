(* Simulator consistency: the paper validates its cycle-accurate simulator
   against Hyperscan; here every engine is validated against the reference
   software matchers, and the runner's accounting is sanity-checked. *)

open Alcotest

let params = Program.default_params
let parse = Parser.parse_exn
let rap = Arch.rap ~bv_depth:params.Program.bv_depth

(* Some piece powers the tile: its word has a powering count. *)
let powered w = w lsr (2 * Engine.tile_bits) > 0

(* Positions where an engine reports, over an input. *)
let engine_report_positions engine input =
  let acc = ref [] in
  String.iteri
    (fun p c ->
      let ev = Engine.step engine c in
      if ev.Engine.reports > 0 then acc := p :: !acc)
    input;
  List.rev !acc

let nfa_engine_of src =
  let ast = parse src in
  let u = Nfa_compile.compile ast in
  Engine.of_nfa_unit u

let test_nfa_engine_consistency () =
  List.iter
    (fun (src, input) ->
      let reference = Nfa.match_ends (Glushkov.compile (parse src)) input in
      let got = engine_report_positions (nfa_engine_of src) input in
      check (list int) (Printf.sprintf "%s on %S" src input) reference got)
    [
      ("a{5}b", "xaaaaabyaaaab");
      ("ab|cd", "abcdab");
      ("k.*z", "kxxzxz");
      ("a[bc]{2,6}d", "abcbcbd.abcccccccd");
      ("x{40}y", String.make 45 'x' ^ "y");
    ]

(* The compressed-executor property: the NFA engine's total active count
   per symbol equals the direct NFA simulation's. *)
let prop_nfa_engine_activity =
  QCheck2.Test.make ~name:"NFA engine activity equals direct NFA run" ~count:150
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:5 ()) Gen.gen_input)
    (fun (r, input) ->
      let u = Nfa_compile.compile r in
      let e = Engine.of_nfa_unit u in
      let direct = Nfa.run u.Program.nfa input in
      let ok = ref true in
      String.iteri
        (fun p c ->
          let ev = Engine.step e c in
          let total = Array.fold_left (fun acc w -> acc + Engine.tile_active w) 0 ev.Engine.tile in
          if total <> direct.Nfa.active_per_step.(p) then ok := false)
        input;
      !ok)

let prop_nfa_engine_reports =
  QCheck2.Test.make ~name:"NFA engine reports at reference positions" ~count:150
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:5 ()) Gen.gen_input)
    (fun (r, input) ->
      let u = Nfa_compile.compile r in
      let e = Engine.of_nfa_unit u in
      engine_report_positions e input = Nfa.match_ends u.Program.nfa input)

let test_nbva_engine_consistency () =
  List.iter
    (fun (src, input) ->
      let nu = Nbva_compile.compile ~params (parse src) in
      let e = Engine.of_nbva_unit nu in
      let reference = Nbva.match_ends nu.Program.nbva input in
      check (list int) (Printf.sprintf "%s on %S" src input) reference
        (engine_report_positions e input))
    [
      ("head.{2,64}tail", "headxxtailyyheadtail");
      ("a{30}b", String.make 30 'a' ^ "b");
      ("p[qr]{9,20}s", "pqrqrqrqrqs");
    ]

let prop_nbva_engine_equals_nfa =
  (* end-to-end: NBVA hardware engine == plain NFA semantics *)
  QCheck2.Test.make ~name:"NBVA engine matches NFA semantics" ~count:150
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:6 ()) Gen.gen_input)
    (fun (r, input) ->
      let p = { params with Program.unfold_threshold = 3 } in
      let nu = Nbva_compile.compile ~params:p r in
      let e = Engine.of_nbva_unit nu in
      engine_report_positions e input = Nfa.match_ends (Glushkov.compile r) input)

let test_bin_engine_consistency () =
  (* a bin's reports are the union of its member lines' matches *)
  let mk s = { Program.labels = Array.init (String.length s) (fun i -> Charclass.singleton s.[i]); single_code = true } in
  let lines = [ (0, mk "abc"); (1, mk "bcd"); (2, mk "cde") ] in
  let bins = Binning.pack ~max_bin_size:4 lines in
  check int "one bin" 1 (List.length bins);
  let e = Engine.of_bin (List.hd bins) in
  let input = "abcdefabc" in
  let reference =
    List.concat_map
      (fun (_, l) -> Nfa.match_ends (Gen.line_nfa l.Program.labels) input)
      lines
    |> List.sort_uniq compare
  in
  check (list int) "bin reports" reference (engine_report_positions e input)

let test_bin_power_gating () =
  (* a multi-tile bin powers only tile 0 while idle *)
  let mk len = { Program.labels = Array.init len (fun i -> Charclass.singleton (Char.chr (97 + (i mod 26)))); single_code = true } in
  let lines = List.init 16 (fun i -> (i, mk 40)) in
  let bins = Binning.pack ~max_bin_size:16 lines in
  let b = List.hd bins in
  check bool "multi-tile bin" true (b.Binning.tiles > 1);
  let e = Engine.of_bin b in
  let ev = Engine.step e 'z' (* matches nothing *) in
  check bool "tile 0 powered" true (powered ev.Engine.tile.(0));
  for t = 1 to Engine.num_tiles e - 1 do
    check bool "other tiles gated" false (powered ev.Engine.tile.(t))
  done

(* Regression: ring cross-signal accounting on a crafted two-member bin
   whose member boundary coincides with a region boundary.  Member 0 is
   exactly two regions long, so its pattern-final bit sits at the end of
   a region right before member 1's initial position; an active bit there
   has no successor and must contribute NO ring signal, while a genuine
   region-straddling transition inside a member must count exactly once. *)
let test_bin_ring_cross_accounting () =
  let mk s =
    { Program.labels = Array.init (String.length s) (fun i -> Charclass.singleton s.[i]);
      single_code = true }
  in
  let bin =
    {
      Binning.members = [ (0, mk "abcdefgh"); (1, mk "ABCDEFGH") ];
      slots = 2;
      region_states = 4;
      max_len = 8;
      tiles = 2;
      single_code = true;
    }
  in
  let e = Engine.of_bin bin in
  (* drive member 0's chain: after 'd' the only active bit is bit 3, whose
     successor bit 4 lives one tile over — one genuine ring signal *)
  let ev = List.fold_left (fun _ c -> Engine.step e c) (Engine.events e) [ 'a'; 'b'; 'c'; 'd' ] in
  check int "region-straddling bit crosses once" 1 ev.Engine.cross;
  check int "active in tile 0" 1 (Engine.tile_active ev.Engine.tile.(0));
  (* after 'h' the only active bit is member 0's pattern-final bit 7: the
     member boundary coincides with the region boundary, and the shift out
     of the pattern must NOT be billed as a cross signal into member 1 *)
  let ev = List.fold_left (fun _ c -> Engine.step e c) ev [ 'e'; 'f'; 'g'; 'h' ] in
  check int "final bit active in tile 1" 1 (Engine.tile_active ev.Engine.tile.(1));
  check int "reports the match" 1 ev.Engine.reports;
  check int "pattern-final bit emits no ring signal" 0 ev.Engine.cross;
  (* same chain on member 1 (packed second): its mid-chain region crossing
     still counts, its final bit still does not *)
  let ev = List.fold_left (fun _ c -> Engine.step e c) ev [ 'A'; 'B'; 'C'; 'D' ] in
  check int "member 1 region-straddling bit crosses once" 1 ev.Engine.cross;
  let ev = List.fold_left (fun _ c -> Engine.step e c) ev [ 'E'; 'F'; 'G'; 'H' ] in
  check int "member 1 final bit emits no ring signal" 0 ev.Engine.cross;
  check int "member 1 reports" 1 ev.Engine.reports

let test_bv_trigger_and_stall () =
  (* a regex whose vector is constantly alive must stall the array *)
  let regexes = [ ("t", parse "t[a-z]{4,40}") ] in
  let units, errs = Runner.compile_for rap ~params regexes in
  check int "no errors" 0 (List.length errs);
  let p = Runner.place rap ~params units in
  let input = String.concat "" (List.init 50 (fun _ -> "tabcdefghij")) in
  let r = Runner.run rap ~params p ~input in
  check bool "stalls happened" true (r.Runner.cycles > r.Runner.chars);
  check bool "throughput below clock" true (r.Runner.throughput_gchs < rap.Arch.clock_ghz);
  check bool "bv energy charged" true (Energy.get_pj r.Runner.energy Energy.Bv_processing > 0.)

let test_report_counts_match_reference () =
  (* whole-runner check on a small mixed rule set *)
  let srcs = [ "needle"; "a{12}b"; "x.{3,30}y" ] in
  let input =
    "zzneedlezz" ^ String.make 12 'a' ^ "b" ^ "xqqqy" ^ String.concat "" (List.init 30 (fun _ -> "pad"))
  in
  let reference =
    List.fold_left
      (fun acc src -> acc + List.length (Rap.find_all (Rap.matcher_exn src) input))
      0 srcs
  in
  let regexes = List.map (fun s -> (s, parse s)) srcs in
  let units, _ = Runner.compile_for rap ~params regexes in
  let p = Runner.place rap ~params units in
  let r = Runner.run rap ~params p ~input in
  check int "report count equals reference total" reference r.Runner.match_reports

let test_cross_arch_match_agreement () =
  (* all four simulated designs must report the same matches *)
  let srcs = [ "alpha"; "b{10}c"; "d[ef]{2,20}g" ] in
  let regexes = List.map (fun s -> (s, parse s)) srcs in
  let input = "alphaxx" ^ String.make 10 'b' ^ "c" ^ "deefefg" ^ "noise" in
  let reports arch =
    let units, _ = Runner.compile_for arch ~params regexes in
    let p = Runner.place arch ~params units in
    (Runner.run arch ~params p ~input).Runner.match_reports
  in
  let r = reports rap in
  check int "CAMA agrees" r (reports Arch.cama);
  check int "CA agrees" r (reports Arch.ca);
  check int "BVAP agrees" r (reports Arch.bvap)

let test_runner_accounting_sanity () =
  let s = Benchmarks.by_name "Yara" in
  let regexes = List.filteri (fun i _ -> i < 30) s.Benchmarks.regexes in
  let input = s.Benchmarks.make_input ~chars:2_000 in
  let units, _ = Runner.compile_for rap ~params regexes in
  let p = Runner.place rap ~params units in
  let r = Runner.run rap ~params p ~input in
  check bool "cycles >= chars" true (r.Runner.cycles >= r.Runner.chars);
  check bool "energy positive" true (Energy.total_pj r.Runner.energy > 0.);
  check bool "area positive" true (r.Runner.area_mm2 > 0.);
  check bool "power positive" true (r.Runner.power_w > 0.);
  check bool "throughput at most clock" true (r.Runner.throughput_gchs <= rap.Arch.clock_ghz +. 1e-9);
  (* per-mode attributions sum to totals *)
  let mode_sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. r.Runner.mode_energy_pj in
  let tile_level =
    Energy.get_pj r.Runner.energy Energy.State_matching
    +. Energy.get_pj r.Runner.energy Energy.State_transition
    +. Energy.get_pj r.Runner.energy Energy.Bv_processing
    +. Energy.get_pj r.Runner.energy Energy.Leakage
  in
  check bool "mode energy covers tile-level energy" true (mode_sum >= tile_level *. 0.99);
  check int "array details per array" r.Runner.num_arrays (Array.length r.Runner.arrays_detail)

let test_stall_cycles_model () =
  check int "RAP stall = depth + 2" 10 (Arch.stall_cycles rap ~bv_depth:8 ~max_bv_size:999);
  check int "BVAP stall from word count" 4
    (Arch.stall_cycles Arch.bvap ~bv_depth:8 ~max_bv_size:200);
  check int "CAMA never stalls" 0 (Arch.stall_cycles Arch.cama ~bv_depth:8 ~max_bv_size:999)

let test_leakage_model () =
  let full = Arch.tile_leakage_pj_per_cycle rap ~powered:true in
  let gated = Arch.tile_leakage_pj_per_cycle rap ~powered:false in
  check bool "gating saves 90%" true (gated < 0.11 *. full);
  check bool "CA leaks more than RAP" true
    (Arch.tile_leakage_pj_per_cycle Arch.ca ~powered:true > full)

(* Render each case's [regexes] over its [input] on every architecture
   and compare the report with test/golden/reports/[name]-[arch].txt.
   A mismatch (or a missing file) writes the new rendering under
   reports.actual/ in the test's build directory, and the test fails
   once every case has run.  Returns each case's reports, in
   architecture order. *)
let golden_reports cases =
  let archs =
    [ ("rap", Rap.rap_arch ()); ("cama", Arch.cama); ("ca", Arch.ca); ("bvap", Arch.bvap) ]
  in
  let actual_dir = "reports.actual" in
  let moved = ref [] in
  let reports =
    List.map
      (fun (name, regexes, input) ->
        List.map
          (fun (arch_name, arch) ->
            let units, _ = Runner.compile_for arch ~params regexes in
            let p = Runner.place arch ~params units in
            let report = Runner.run arch ~params p ~input in
            let got = Runner.render_report report in
            let file = Printf.sprintf "%s-%s.txt" name arch_name in
            let golden = Filename.concat (Filename.concat "golden" "reports") file in
            let want =
              if Sys.file_exists golden then In_channel.with_open_bin golden In_channel.input_all
              else ""
            in
            if not (String.equal got want) then begin
              if not (Sys.file_exists actual_dir) then Sys.mkdir actual_dir 0o755;
              Out_channel.with_open_bin (Filename.concat actual_dir file) (fun oc ->
                  Out_channel.output_string oc got);
              moved := file :: !moved
            end;
            report)
          archs)
      cases
  in
  if !moved <> [] then
    failf
      "reports moved: %s.  The new renderings are in _build/default/test/%s/.  Copy them \
       over test/golden/reports/ only in a change that states why the reports moved."
      (String.concat ", " (List.rev !moved))
      actual_dir;
  reports

(* Report bytes are pinned across refactors: Snort and ClamAV, each on
   its seeded 4096-character input, render on every architecture exactly
   the files under test/golden/reports/. *)
let test_reports_golden () =
  ignore
    (golden_reports
       (List.map
          (fun suite ->
            let s = Benchmarks.by_name suite in
            ( String.lowercase_ascii suite,
              s.Benchmarks.regexes,
              s.Benchmarks.make_input ~chars:4096 ))
          [ "Snort"; "ClamAV" ]))

(* The seeded inputs hold almost no whole match, so the goldens above
   read 0 reports.  These plant a witness of every Snort rule and of
   every 8th ClamAV rule into the same 4096 characters, evenly spaced,
   so the pinned reports count real matches. *)
let test_planted_reports_golden () =
  let cases =
    List.map
      (fun (suite, every) ->
        let s = Benchmarks.by_name suite in
        let base = s.Benchmarks.make_input ~chars:4096 in
        let planted =
          List.filteri (fun i _ -> i mod every = 0) s.Benchmarks.regexes
          |> List.map (fun (src, ast) ->
                 let w = Ast.witness ast in
                 let ends = Nfa.match_ends (Glushkov.compile ast) w in
                 check bool (suite ^ " rule matches its witness: " ^ src) true
                   (w <> "" && List.mem (String.length w - 1) ends);
                 w)
        in
        let n = List.length planted in
        let cut k = k * String.length base / (n + 1) in
        let input =
          String.concat ""
            (List.mapi (fun k w -> String.sub base (cut k) (cut (k + 1) - cut k) ^ w) planted
            @ [ String.sub base (cut n) (String.length base - cut n) ])
        in
        ("planted-" ^ String.lowercase_ascii suite, s.Benchmarks.regexes, input))
      [ ("Snort", 1); ("ClamAV", 8) ]
  in
  List.iter2
    (fun (name, _, _) reports ->
      List.iter
        (fun (r : Runner.report) ->
          check bool (name ^ ": the input reports matches") true (r.Runner.match_reports > 0))
        reports)
    cases (golden_reports cases)

(* Tile words add field by field: pieces' words, each field within
   bounds, sum to a word that decodes to the fields' sums, powered iff
   some piece is; the checked sum agrees, and refuses a field past its
   limit. *)
let prop_tile_words_add =
  let open QCheck2.Gen in
  let case =
    let* n = int_range 1 8 in
    let field = int_bound (((1 lsl 24) - 1) / n) in
    list_repeat n (triple field field bool)
  in
  QCheck2.Test.make ~name:"tile words add field by field" ~count:500
    ~print:(fun ps ->
      String.concat "; " (List.map (fun (a, e, p) -> Printf.sprintf "(%d, %d, %b)" a e p) ps))
    case
    (fun pieces ->
      let words =
        List.map
          (fun (active, enabled, p) ->
            Engine.tile_word ~active ~enabled ~powering:(if p then 1 else 0))
          pieces
      in
      let sum = List.fold_left ( + ) 0 words in
      let total f = List.fold_left (fun acc x -> acc + f x) 0 pieces in
      Engine.tile_active sum = total (fun (a, _, _) -> a)
      && Engine.tile_enabled sum = total (fun (_, e, _) -> e)
      && powered sum = List.exists (fun (_, _, p) -> p) pieces
      && List.fold_left Engine.tile_add 0 words = sum
      &&
      let full = Engine.tile_word ~active:0 ~enabled:Engine.tile_mask ~powering:0 in
      match Engine.tile_add sum full with
      | exception Invalid_argument _ -> Engine.tile_enabled sum > 0
      | w -> Engine.tile_enabled sum = 0 && Engine.tile_enabled w = Engine.tile_mask)

let suite =
  [
    test_case "reports match the golden files" `Quick test_reports_golden;
    test_case "planted witnesses: reports match the golden files" `Quick
      test_planted_reports_golden;
    test_case "NFA engine vs reference" `Quick test_nfa_engine_consistency;
    test_case "NBVA engine vs reference" `Quick test_nbva_engine_consistency;
    test_case "bin engine vs reference" `Quick test_bin_engine_consistency;
    test_case "bin power gating" `Quick test_bin_power_gating;
    test_case "bin ring cross accounting" `Quick test_bin_ring_cross_accounting;
    test_case "BV triggers stall the array" `Quick test_bv_trigger_and_stall;
    test_case "runner reports = reference matches" `Quick test_report_counts_match_reference;
    test_case "cross-architecture agreement" `Quick test_cross_arch_match_agreement;
    test_case "runner accounting sanity" `Quick test_runner_accounting_sanity;
    test_case "stall model" `Quick test_stall_cycles_model;
    test_case "leakage model" `Quick test_leakage_model;
    QCheck_alcotest.to_alcotest prop_nfa_engine_activity;
    QCheck_alcotest.to_alcotest prop_nfa_engine_reports;
    QCheck_alcotest.to_alcotest prop_nbva_engine_equals_nfa;
    QCheck_alcotest.to_alcotest prop_tile_words_add;
  ]
