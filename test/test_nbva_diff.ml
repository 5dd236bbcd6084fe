(* Differential equivalence of the NBVA kernels: the bit-parallel
   [Nbva.step] must be bit-identical — return value, packed active vector,
   and every BV vector, after every symbol — to the retained scalar
   [Nbva.step_reference].  CI gates on this module being present and
   passing; it is the proof that the hot-path rewrite preserves
   behaviour. *)

open Alcotest

let parse = Parser.parse_exn

(* One lock-step run; raises with a diagnostic on the first divergence. *)
let lockstep t input =
  let a = Nbva.start t and b = Nbva.start t in
  String.iteri
    (fun p c ->
      let ha = Nbva.step t a c in
      let hb = Nbva.step_reference t b c in
      if ha <> hb then
        failf "hit diverges at %d (%C): bit-parallel %b, reference %b" p c ha hb;
      if not (Bitvec.equal (Nbva.outputs a) (Nbva.outputs b)) then
        failf "active vector diverges at %d (%C): %s vs %s" p c
          (Format.asprintf "%a" Bitvec.pp (Nbva.outputs a))
          (Format.asprintf "%a" Bitvec.pp (Nbva.outputs b));
      Array.iteri
        (fun q va ->
          match (va, (Nbva.vectors b).(q)) with
          | None, None -> ()
          | Some va, Some vb ->
              if not (Bitvec.equal va vb) then
                failf "BV vector of q%d diverges at %d (%C)" q p c
          | _ -> failf "vector materialization differs at q%d" q)
        (Nbva.vectors a);
      if Nbva.reports t a <> Nbva.reports t b then
        failf "reports diverge at %d (%C)" p c)
    input;
  true

(* A literal alternation of exactly [n] states (five-letter words, the
   last one cut short) and an input spelling every word, so the states
   of the top activation word fire.  With [bv] the last two states are
   the BV states of [q{3,9}], so the top word holds BV bits. *)
let word_boundary_case ?(bv = false) n =
  let rec words i left =
    if left <= 0 then []
    else
      let len = Int.min 5 left in
      String.sub (Printf.sprintf "v%02drd" i) 0 len :: words (i + 1) (left - len)
  in
  let ws = words 0 (if bv then n - 2 else n) in
  let src = String.concat "|" (if bv then ws @ [ "q{3,9}" ] else ws) in
  check int (Printf.sprintf "%s has %d states" src n) n
    (Nbva.num_states (Nbva.compile ~threshold:2 (parse src)));
  let spelled = String.concat " " ws in
  (src, spelled ^ " qqqq qqqqqqqqq " ^ String.concat "" (List.rev ws) ^ " " ^ spelled)

let test_directed_cases () =
  List.iter
    (fun (src, input) -> check bool (src ^ " on " ^ input) true (lockstep (Nbva.compile ~threshold:2 (parse src)) input))
    ([
      ("a.*bc{5}", "axxbccccc ccaxxbcccccc");
      ("b(a{7}|c{5})b", "cccccccbaaaaaaab bcccccb bccccccb");
      ("bc{0,3}d", "bd bcd bccd bcccd bccccd");
      ("ab{2,5}c", "abc abbc abbbbbc abbbbbbc xabbbc");
      ("(a{2}b)+", "aabaab aabab aab");
      ("a{4}z", "aaxaaz aaxaaaaz");
      ("x{40}y", String.make 45 'x' ^ "y" ^ String.make 40 'x' ^ "y");
      (* >62 states exercises multi-word active vectors *)
      ( String.concat "|" (List.init 24 (fun i -> Printf.sprintf "w%02drd" i)),
        "w03rd xx w17rd w23rd w00rd" );
    ]
    (* one, two and three activation words, the top one full or holding
       one bit: the initial-row copy, the top-word mask and every word
       loop's bound ([Bitvec.words_for]) at each edge *)
    @ List.map (fun n -> word_boundary_case n) [ 61; 62; 63; 124; 125 ]
    @ List.map (fun n -> word_boundary_case ~bv:true n) [ 62; 63; 124; 125 ])

(* Random ASTs x random inputs, at two thresholds so both BV-heavy and
   fully unfolded automata are exercised. *)
let prop_step_equals_reference threshold =
  QCheck2.Test.make
    ~name:(Printf.sprintf "step = step_reference, state for state (threshold %d)" threshold)
    ~count:500
    ~print:(fun (r, s) -> Printf.sprintf "%s on %S" (Gen.ast_print r) s)
    QCheck2.Gen.(pair (Gen.gen_ast ~max_bound:6 ()) Gen.gen_input)
    (fun (r, input) -> lockstep (Nbva.compile ~threshold r) input)

(* The kernel selector really swaps kernels, and both agree with the
   plain-NFA oracle end to end. *)
let test_kernel_selector () =
  let r = parse "a[bc]{2,6}d" in
  let t = Nbva.compile ~threshold:2 r in
  let input = "abcbcbd.abcccccccd" in
  let oracle = Nfa.match_ends (Glushkov.compile r) input in
  let with_kernel k =
    Nbva.kernel := k;
    Fun.protect ~finally:(fun () -> Nbva.kernel := Nbva.Bit_parallel) (fun () ->
        Nbva.match_ends t input)
  in
  check (list int) "bit-parallel kernel" oracle (with_kernel Nbva.Bit_parallel);
  check (list int) "reference kernel" oracle (with_kernel Nbva.Reference)

let suite =
  [
    test_case "directed kernel lock-step" `Quick test_directed_cases;
    test_case "kernel selector" `Quick test_kernel_selector;
    QCheck_alcotest.to_alcotest (prop_step_equals_reference 2);
    QCheck_alcotest.to_alcotest (prop_step_equals_reference 4);
  ]
