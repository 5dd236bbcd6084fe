(* Lazy-DFA fast path: [Dfa.step] must be bit-identical — return value,
   packed activation vector, report count, after every symbol — to the
   scalar reference kernel, under every cache condition the design
   allows: cold cache, warm cache, eviction flushes, the permanent
   blown-cache fallback, and external mutation of the run state between
   steps (restore, rollback, fault injection), which the verify-on-step
   resync must absorb without generation counters.  A full-stack section
   proves the specialized stepper actually engages behind Runner and
   stays bit-identical across --jobs schedules, the
   reference kernel, and a mid-stream checkpoint/resume whose resumed
   process starts with a cold transition cache. *)

open Alcotest

let parse = Parser.parse_exn
let params = Program.default_params
let rap = Arch.rap ~bv_depth:params.Program.bv_depth

(* Unfold every bounded repetition so the automaton carries no BV-STEs
   and is DFA-eligible even when the source uses counting. *)
let compile_flat src = Nbva.compile ~threshold:100 (parse src)

let dfa_of ?max_states t =
  match Dfa.create ?max_states t with
  | Some d -> d
  | None -> fail "automaton unexpectedly carries BV-STEs"

(* One lockstep run; [mutate] fires after every symbol and may perturb
   both run states (identically), modelling external writes the DFA
   cursor must detect. *)
let lockstep ?max_states ?(mutate = fun _ _ _ -> ()) t input =
  let d = dfa_of ?max_states t in
  let a = Nbva.start t and b = Nbva.start t in
  let r = Dfa.attach d a in
  String.iteri
    (fun p c ->
      let ha = Dfa.step r c in
      let hb = Nbva.step_reference t b c in
      if ha <> hb then failf "hit diverges at %d (%C): dfa %b, reference %b" p c ha hb;
      if not (Bitvec.equal (Nbva.outputs a) (Nbva.outputs b)) then
        failf "active vector diverges at %d (%C): %s vs %s" p c
          (Format.asprintf "%a" Bitvec.pp (Nbva.outputs a))
          (Format.asprintf "%a" Bitvec.pp (Nbva.outputs b));
      if Nbva.reports t a <> Nbva.reports t b then failf "reports diverge at %d (%C)" p c;
      mutate p a b)
    input;
  true

let test_directed_cases () =
  List.iter
    (fun (src, input) ->
      check bool (src ^ " on " ^ input) true (lockstep (compile_flat src) input))
    [
      ("abc|xyz", "abcxyzabxyzzabc");
      ("(a|b)*abb", "abababbbaabbab");
      ("a[bc]d[ef]g", "abdeg acdfg abdg aceg abdegabdfg");
      ("hello|help|held", "hellohelpheldhel held");
      ("ab{2,5}c", "abc abbc abbbbbc abbbbbbc xabbbc");
      ("x{40}y", String.make 45 'x' ^ "y" ^ String.make 40 'x' ^ "y");
      (* >62 states exercises multi-word interned sets *)
      ( String.concat "|" (List.init 24 (fun i -> Printf.sprintf "w%02drd" i)),
        "w03rd xx w17rd w23rd w00rd" );
    ]

(* A pseudorandom input over a small alphabet, deterministic per seed. *)
let pseudo_input ~seed ~len ~alphabet =
  let buf = Bytes.create len in
  let s = ref seed in
  for i = 0 to len - 1 do
    s := (!s * 1103515245 + 12345) land 0x3FFFFFFF;
    Bytes.set buf i alphabet.[!s lsr 7 mod String.length alphabet]
  done;
  Bytes.to_string buf

(* A 2-state cache on an automaton with many reachable subset states:
   constant eviction, then flush-budget exhaustion, then the permanent
   NFA fallback — identical output through all three regimes. *)
let test_cache_pressure_fallback () =
  let t = compile_flat "(a|b)*abb|(b|c)*bca" in
  let d = dfa_of ~max_states:2 t in
  let input = pseudo_input ~seed:12345 ~len:2000 ~alphabet:"abc" in
  let a = Nbva.start t and b = Nbva.start t in
  let r = Dfa.attach d a in
  String.iter
    (fun c ->
      let ha = Dfa.step r c in
      let hb = Nbva.step_reference t b c in
      if ha <> hb || not (Bitvec.equal (Nbva.outputs a) (Nbva.outputs b)) then
        fail "diverged under cache pressure")
    input;
  check bool "the tiny cache actually overflowed" true (Dfa.flushes d >= 1 || Dfa.disabled d);
  check bool "fills happened before the blowup" true (Dfa.fills d > 0);
  (* reset rearms a blown cache and drops every interned state *)
  Dfa.reset d;
  check bool "reset rearms" false (Dfa.disabled d);
  check int "reset drops states" 0 (Dfa.cached_states d);
  check bool "rearmed cache still lockstep" true
    (let b2 = Nbva.start t in
     let r2 = Dfa.attach d (Nbva.start t) in
     String.for_all (fun _ -> true) input
     &&
     (String.iter
        (fun c ->
          let ha = Dfa.step r2 c in
          let hb = Nbva.step_reference t b2 c in
          if ha <> hb then fail "diverged after reset")
        input;
      true))

(* External mutation: every 97 symbols, set the same extra activation
   bit in both run states.  The DFA cursor's interned row no longer
   matches the live words, so the next step must re-intern instead of
   trusting the cursor — divergence here means the resync is broken. *)
let test_external_mutation_resync () =
  let t = compile_flat "(a|b)*abb" in
  let width = Nbva.num_states t in
  let input = pseudo_input ~seed:777 ~len:1500 ~alphabet:"ab" in
  let mutate p a b =
    if p mod 97 = 0 then begin
      let bit = p / 97 mod width in
      Bitvec.set (Nbva.outputs a) bit;
      Bitvec.set (Nbva.outputs b) bit
    end
  in
  check bool "lockstep survives external writes" true (lockstep ~mutate t input)

let prop_dfa_equals_reference =
  QCheck2.Test.make ~name:"Dfa.step = step_reference across cache-eviction boundaries"
    ~count:300
    ~print:(fun ((r, s), ms) ->
      Printf.sprintf "%s on %S (max_states %d)" (Gen.ast_print r) s ms)
    QCheck2.Gen.(pair (pair (Gen.gen_ast ~max_bound:6 ()) Gen.gen_input) (int_range 2 5))
    (fun ((r, input), max_states) ->
      let t = Nbva.compile ~threshold:100 r in
      QCheck2.assume (Nbva.num_bv_stes t = 0);
      lockstep ~max_states t input)

(* Table growth.  The state tables start small and double up to
   [max_states], so the same lockstep property runs at capacities on
   both sides of every doubling and of the cap.  [RAP_DFA_CACHE]
   overrides every capacity (CI reruns this suite under it), so the
   checks on which regime a capacity lands in hold only without it;
   lockstep identity is checked either way. *)
let growth_capacities = [ 2; 3; 8; 9; 16; 17; 64; 512 ]
let capacity_overridden = Sys.getenv_opt "RAP_DFA_CACHE" <> None

(* One lockstep pass through a given cache, from a fresh cursor, so the
   caller can inspect the cache afterwards. *)
let lockstep_on label d t input =
  let a = Nbva.start t and b = Nbva.start t in
  let r = Dfa.attach d a in
  String.iteri
    (fun p c ->
      let ha = Dfa.step r c in
      let hb = Nbva.step_reference t b c in
      if ha <> hb || not (Bitvec.equal (Nbva.outputs a) (Nbva.outputs b)) then
        failf "%s: diverged at %d (%C)" label p c)
    input

let prop_dfa_equals_reference_growth =
  QCheck2.Test.make ~name:"Dfa.step = step_reference at capacities straddling table growth"
    ~count:300
    ~print:(fun ((r, s), ms) ->
      Printf.sprintf "%s on %S (max_states %d)" (Gen.ast_print r) s ms)
    QCheck2.Gen.(
      pair (pair (Gen.gen_ast ~max_bound:6 ()) Gen.gen_input) (oneofl growth_capacities))
    (fun ((r, input), max_states) ->
      let t = Nbva.compile ~threshold:100 r in
      QCheck2.assume (Nbva.num_bv_stes t = 0);
      lockstep ~max_states t input)

(* "An [a] five symbols back": 32 reachable subset states.  With room
   for all of them the cache only grows; with less, the same input goes
   through growth, eviction flushes and the blown fallback. *)
let many_states () = compile_flat "(a|b)*a(a|b)(a|b)(a|b)(a|b)"

let test_growth_flush_fallback () =
  let t = many_states () in
  let input = pseudo_input ~seed:4242 ~len:3000 ~alphabet:"ab" in
  List.iter
    (fun max_states ->
      let d = dfa_of ~max_states t in
      let label what = Printf.sprintf "max_states %d: %s" max_states what in
      lockstep_on (label "lockstep") d t input;
      if capacity_overridden then ()
      else if max_states >= 64 then begin
        check int (label "no flush") 0 (Dfa.flushes d);
        check bool (label "not blown") false (Dfa.disabled d);
        check bool (label "grew past 16 rows") true (Dfa.cached_states d > 16)
      end
      else check bool (label "overflowed") true (Dfa.flushes d >= 1 || Dfa.disabled d))
    growth_capacities

(* A fill that grows the tables does so while the cursor sits on a live
   row: the row it came from, the transition it writes and the row it
   interns must all survive the copy.  A second cursor replays the input
   on the grown cache: every transition, including those written by
   growing fills, must now be a hit (no new fill), still in lockstep. *)
let test_fill_grows_under_live_cursor () =
  let t = many_states () in
  let input = pseudo_input ~seed:99 ~len:600 ~alphabet:"ab" in
  let d = dfa_of t in
  lockstep_on "first pass" d t input;
  if not capacity_overridden then begin
    check bool "tables grew several times" true (Dfa.cached_states d > 16);
    check int "no flush" 0 (Dfa.flushes d)
  end;
  let fills = Dfa.fills d in
  lockstep_on "replay" d t input;
  if not capacity_overridden then
    check int "replay on the grown tables is all hits" fills (Dfa.fills d)

(* ------------------------------------------------------------------ *)
(* Full stack: Runner-level identity with the specialized stepper on. *)

let dfa_rules = [ "abc|xbz"; "hello"; "(ab|cd)*ef"; "a[bc]d[ef]g" ]

let dfa_placement () =
  let parsed = List.map (fun s -> (s, parse s)) dfa_rules in
  let units, errs = Runner.compile_for rap ~params parsed in
  check int "rules compile" 0 (List.length errs);
  Runner.place rap ~params units

let stack_input () =
  String.concat ""
    (List.init 60 (fun i ->
         match i mod 5 with
         | 0 -> "abc "
         | 1 -> "xbz hello "
         | 2 -> "ababcdcdef "
         | 3 -> "abdeg aceg "
         | _ -> "zzz "))

let check_reports_equal label (a : Runner.report) (b : Runner.report) =
  check int (label ^ ": cycles") a.Runner.cycles b.Runner.cycles;
  check int (label ^ ": reports") a.Runner.match_reports b.Runner.match_reports;
  List.iter
    (fun cat ->
      check (float 0.) (* exact: bit-identity, not approximation *)
        (label ^ ": " ^ Energy.category_name cat)
        (Energy.get_pj a.Runner.energy cat)
        (Energy.get_pj b.Runner.energy cat))
    Energy.all_categories

(* The mode-selection hint really reaches the engines, the engines
   really run the DFA stepper, and the transition cache really fills. *)
let test_stepper_engages () =
  let p = dfa_placement () in
  let input = stack_input () in
  let engaged = ref false in
  Array.iter
    (fun tiles ->
      let ex = Exec.build p tiles in
      String.iteri (fun sym c -> ignore (Exec.step rap ex ~sym c)) input;
      Array.iter
        (fun e ->
          if Engine.stepper_name e = "dfa" then begin
            match Engine.dfa_stats e with
            | Some (cached, fills, _, disabled) ->
                check bool "cache filled" true (cached > 0 && fills > 0);
                check bool "not disabled" false disabled;
                engaged := true
            | None -> fail "dfa stepper without stats"
          end)
        (Exec.engines ex))
    p.Mapper.arrays;
  check bool "some engine ran the dfa stepper" true !engaged

let test_full_stack_identity () =
  let p = dfa_placement () in
  let input = stack_input () in
  let base = Runner.run rap ~params p ~input in
  check bool "the workload matches" true (base.Runner.match_reports > 0);
  List.iter
    (fun jobs ->
      check_reports_equal
        (Printf.sprintf "jobs=%d" jobs)
        base
        (Runner.run ~jobs rap ~params p ~input))
    [ 2; 4 ];
  Nbva.kernel := Nbva.Reference;
  Fun.protect
    ~finally:(fun () -> Nbva.kernel := Nbva.Bit_parallel)
    (fun () ->
      check_reports_equal "reference kernel" base (Runner.run rap ~params p ~input))

(* Mid-stream checkpoint/resume: the resumed process builds fresh
   engines, so its DFA cache starts cold while the restored activation
   state is mid-pattern — the first steps after restore must resync
   from the live words, and the final report must equal the
   uninterrupted run's bit for bit. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_checkpoint_resume_cold_cache () =
  let p = dfa_placement () in
  let input = stack_input () in
  let split = String.length input / 2 in
  let run_stream ?checkpoint ?resume stream =
    Runner.run_stream ~jobs:1 ?checkpoint ?resume rap ~params p ~stream
  in
  let c = run_stream (Input_stream.of_string ~chunk:64 input) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rap-dfa-ckpt-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let _a : Runner.report =
        run_stream
          ~checkpoint:{ Checkpoint.dir; every = 1 }
          (Input_stream.of_string ~chunk:64 (String.sub input 0 split))
      in
      let b =
        run_stream
          ~checkpoint:{ Checkpoint.dir; every = max_int }
          ~resume:true
          (Input_stream.of_string ~chunk:64 input)
      in
      check_reports_equal "resumed run (cold DFA cache)" c b)

let suite =
  [
    test_case "directed lockstep vs reference" `Quick test_directed_cases;
    test_case "cache pressure, flush budget, blown fallback" `Quick test_cache_pressure_fallback;
    test_case "external mutation resyncs the cursor" `Quick test_external_mutation_resync;
    QCheck_alcotest.to_alcotest prop_dfa_equals_reference;
    QCheck_alcotest.to_alcotest prop_dfa_equals_reference_growth;
    test_case "growth, flush and fallback on one input" `Quick test_growth_flush_fallback;
    test_case "a fill grows the tables under a live cursor" `Quick
      test_fill_grows_under_live_cursor;
    test_case "stepper engages behind the runner" `Quick test_stepper_engages;
    test_case "full-stack identity across schedules and kernels" `Quick test_full_stack_identity;
    test_case "checkpoint/resume with a cold DFA cache" `Quick test_checkpoint_resume_cold_cache;
  ]
