(* QCheck generators, and the reference automata, shared by the suites. *)

open QCheck2

(* The linear NFA [q0 -> q1 -> ... -> qn-1] over [labels], initial [q0]
   and final [qn-1]: the reference a Shift-And bin or a rewritten line is
   checked against. *)
let line_nfa labels =
  let n = Array.length labels in
  Nfa.make ~labels
    ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))
    ~initial:[ 0 ] ~finals:[ n - 1 ] ~accepts_empty:false

(* Character classes drawn from a small, overlap-prone pool so that random
   inputs actually exercise transitions. *)
let cc_pool =
  [|
    Charclass.singleton 'a';
    Charclass.singleton 'b';
    Charclass.singleton 'c';
    Charclass.of_string "ab";
    Charclass.of_string "bc";
    Charclass.of_range 'a' 'd';
    Charclass.complement (Charclass.singleton 'a');
    Charclass.dot;
  |]

let gen_cc = Gen.map (fun i -> cc_pool.(i)) (Gen.int_bound (Array.length cc_pool - 1))

(* Random regex ASTs.  [max_bound] caps repetition bounds so unfolded sizes
   stay testable. *)
let gen_ast ?(max_bound = 6) () =
  let open Gen in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 0 then map Ast.cls gen_cc
      else
        frequency
          [
            (3, map Ast.cls gen_cc);
            (3, map2 Ast.concat (self (n / 2)) (self (n / 2)));
            (2, map2 Ast.alt (self (n / 2)) (self (n / 2)));
            (1, map Ast.star (self (n - 1)));
            (1, map Ast.opt (self (n - 1)));
            ( 2,
              map3
                (fun r m extra -> Ast.repeat r m (Some (m + extra)))
                (self 0) (int_range 1 max_bound) (int_bound 3) );
            (1, map2 (fun r m -> Ast.repeat r m (Some m)) (self 0) (int_range 2 max_bound));
            (1, map2 (fun cc k -> Ast.repeat (Ast.cls cc) 0 (Some k)) gen_cc (int_range 1 max_bound));
          ])

(* Inputs over the small alphabet the classes above live in. *)
let gen_input =
  Gen.(string_size ~gen:(map (fun i -> "abcdx".[i]) (int_bound 4)) (int_range 0 40))

let ast_print r = Ast.to_string r

(* Classes over the whole byte range: a union of up to four random
   ranges, complemented half the time, so members fall in every 64-bit
   word and nibble row. *)
let gen_any_cc =
  let open Gen in
  let range =
    map2
      (fun a n -> Charclass.of_range (Char.chr a) (Char.chr (min 255 (a + n))))
      (int_bound 255) (int_bound 40)
  in
  map2
    (fun rs neg ->
      let cc = List.fold_left Charclass.union Charclass.empty rs in
      if neg then Charclass.complement cc else cc)
    (list_size (int_range 1 4) range)
    bool

(* Regexes whose automata span several mask words: a concatenation of up
   to 150 pieces over {!gen_any_cc}, some starred, alternated or bounded
   (bounds from 8 up stay bit vectors at the default threshold). *)
let gen_wide_ast =
  let open Gen in
  let piece =
    frequency
      [
        (6, map Ast.cls gen_any_cc);
        (1, map (fun cc -> Ast.star (Ast.cls cc)) gen_any_cc);
        (1, map2 (fun a b -> Ast.alt (Ast.cls a) (Ast.cls b)) gen_any_cc gen_any_cc);
        (1, map2 (fun cc m -> Ast.repeat (Ast.cls cc) m (Some m)) gen_any_cc (int_range 2 20));
        (1, map2 (fun cc k -> Ast.repeat (Ast.cls cc) 0 (Some k)) gen_any_cc (int_range 2 20));
      ]
  in
  map Ast.concat_list (list_size (int_range 1 150) piece)
