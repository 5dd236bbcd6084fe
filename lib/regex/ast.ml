type t =
  | Epsilon
  | Class of Charclass.t
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Repeat of t * int * int option

let epsilon = Epsilon

let cls cc = if Charclass.is_empty cc then invalid_arg "Ast.cls: empty class" else Class cc
let chr c = Class (Charclass.singleton c)

(* Concatenation and alternation are normalised to right-nested form so
   that structural equality is associativity-independent. *)
let rec concat a b =
  match (a, b) with
  | Epsilon, r | r, Epsilon -> r
  | Concat (x, y), _ -> concat x (concat y b)
  | _ -> Concat (a, b)

let concat_list rs = List.fold_left concat Epsilon rs

let rec equal a b =
  match (a, b) with
  | Epsilon, Epsilon -> true
  | Class c1, Class c2 -> Charclass.equal c1 c2
  | Concat (a1, a2), Concat (b1, b2) | Alt (a1, a2), Alt (b1, b2) -> equal a1 b1 && equal a2 b2
  | Star a, Star b -> equal a b
  | Repeat (a, m1, n1), Repeat (b, m2, n2) -> m1 = m2 && n1 = n2 && equal a b
  | (Epsilon | Class _ | Concat _ | Alt _ | Star _ | Repeat _), _ -> false

let rec alt a b =
  match a with
  | Alt (x, y) -> alt x (alt y b)
  | _ -> if equal a b then a else Alt (a, b)

let alt_list = function
  | [] -> invalid_arg "Ast.alt_list: empty alternation"
  | r :: rs -> List.fold_left alt r rs

let star = function
  | Epsilon -> Epsilon
  | Star _ as r -> r
  | r -> Star r

let repeat r m n =
  if m < 0 then invalid_arg "Ast.repeat: negative lower bound";
  (match n with
  | Some n when n < m -> invalid_arg "Ast.repeat: upper bound below lower bound"
  | _ -> ());
  match (r, m, n) with
  | _, 0, Some 0 -> Epsilon
  | _, 1, Some 1 -> r
  | Epsilon, _, _ -> Epsilon
  | _, 0, None -> star r
  | _ -> Repeat (r, m, n)

let opt r = repeat r 0 (Some 1)
let plus r = repeat r 1 None

let str s =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (concat (chr s.[i]) acc) in
  loop (String.length s - 1) Epsilon

let rec literal_width = function
  | Epsilon -> 0
  | Class _ -> 1
  | Concat (a, b) -> literal_width a + literal_width b
  | Alt (a, b) -> literal_width a + literal_width b
  | Star a -> literal_width a
  | Repeat (a, _, Some n) -> n * literal_width a
  | Repeat (a, m, None) -> (m + 1) * literal_width a

let rec has_bounded_repetition = function
  | Epsilon | Class _ -> false
  | Concat (a, b) | Alt (a, b) -> has_bounded_repetition a || has_bounded_repetition b
  | Star a -> has_bounded_repetition a
  | Repeat (a, 0, Some 1) -> has_bounded_repetition a (* plain optionality, not a counter *)
  | Repeat (_, _, Some _) -> true
  | Repeat (a, _, None) -> has_bounded_repetition a

let rec witness = function
  | Epsilon | Star _ -> ""
  | Class cc -> (
      match Charclass.choose cc with
      | Some c -> String.make 1 c
      | None -> invalid_arg "Ast.witness: empty class")
  | Concat (a, b) -> witness a ^ witness b
  | Alt (a, b) ->
      let x = witness a and y = witness b in
      if String.length y < String.length x then y else x
  | Repeat (a, m, _) -> String.concat "" (List.init m (fun _ -> witness a))

(* Printing with minimal parenthesisation.  Precedence levels:
   0 = alternation, 1 = concatenation, 2 = postfix repetition. *)

let rec pp_prec level fmt r =
  let paren needed body =
    if needed then (
      Format.pp_print_string fmt "(";
      body ();
      Format.pp_print_string fmt ")")
    else body ()
  in
  match r with
  | Epsilon -> Format.pp_print_string fmt "()"
  | Class cc -> Charclass.pp fmt cc
  | Alt (a, b) ->
      paren (level > 0) (fun () ->
          pp_prec 0 fmt a;
          Format.pp_print_string fmt "|";
          pp_prec 0 fmt b)
  | Concat (a, b) ->
      paren (level > 1) (fun () ->
          pp_prec 1 fmt a;
          pp_prec 1 fmt b)
  | Star a ->
      paren (level > 2) (fun () ->
          pp_prec 3 fmt a;
          Format.pp_print_string fmt "*")
  | Repeat (a, 0, Some 1) ->
      paren (level > 2) (fun () ->
          pp_prec 3 fmt a;
          Format.pp_print_string fmt "?")
  | Repeat (a, 1, None) ->
      paren (level > 2) (fun () ->
          pp_prec 3 fmt a;
          Format.pp_print_string fmt "+")
  | Repeat (a, m, n) ->
      paren (level > 2) (fun () ->
          pp_prec 3 fmt a;
          match n with
          | None -> Format.fprintf fmt "{%d,}" m
          | Some n when n = m -> Format.fprintf fmt "{%d}" m
          | Some n -> Format.fprintf fmt "{%d,%d}" m n)

let pp fmt r = pp_prec 0 fmt r
let to_string r = Format.asprintf "%a" pp r
