let rec repeat_concat r n = if n <= 0 then Ast.epsilon else Ast.concat r (repeat_concat r (n - 1))

let rec optional_tail r n =
  (* (r (r (... r?)?)?)? — nested so the NFA stays Glushkov-minimal *)
  if n <= 0 then Ast.epsilon else Ast.opt (Ast.concat r (optional_tail r (n - 1)))

let unfold_one r m n =
  match n with
  | None -> Ast.concat (repeat_concat r m) (Ast.star r)
  | Some n -> Ast.concat (repeat_concat r m) (optional_tail r (n - m))

let rec unfold_all r =
  match r with
  | Ast.Epsilon | Ast.Class _ -> r
  | Ast.Concat (a, b) -> Ast.concat (unfold_all a) (unfold_all b)
  | Ast.Alt (a, b) -> Ast.alt (unfold_all a) (unfold_all b)
  | Ast.Star a -> Ast.star (unfold_all a)
  | Ast.Repeat (a, m, n) -> unfold_one (unfold_all a) m n

let is_single_class = function Ast.Class _ -> true | _ -> false

let rec unfold_for_nbva ~threshold r =
  match r with
  | Ast.Epsilon | Ast.Class _ -> r
  | Ast.Concat (a, b) ->
      Ast.concat (unfold_for_nbva ~threshold a) (unfold_for_nbva ~threshold b)
  | Ast.Alt (a, b) -> Ast.alt (unfold_for_nbva ~threshold a) (unfold_for_nbva ~threshold b)
  | Ast.Star a -> Ast.star (unfold_for_nbva ~threshold a)
  | Ast.Repeat (a, m, n) -> (
      let a = unfold_for_nbva ~threshold a in
      match n with
      | None -> unfold_one a m n
      | Some bound ->
          if bound < threshold || not (is_single_class a) then unfold_one a m n
          else Ast.repeat a m n)

let rec split_bounded r =
  match r with
  | Ast.Epsilon | Ast.Class _ -> r
  | Ast.Concat (a, b) -> Ast.concat (split_bounded a) (split_bounded b)
  | Ast.Alt (a, b) -> Ast.alt (split_bounded a) (split_bounded b)
  | Ast.Star a -> Ast.star (split_bounded a)
  | Ast.Repeat (a, m, n) -> (
      let a = split_bounded a in
      match n with
      | Some bound when m > 0 && bound > m ->
          Ast.concat (Ast.repeat a m (Some m)) (Ast.repeat a 0 (Some (bound - m)))
      | _ -> Ast.repeat a m n)

let rec pad_to_depth ~depth r =
  match r with
  | Ast.Epsilon | Ast.Class _ -> r
  | Ast.Concat (a, b) -> Ast.concat (pad_to_depth ~depth a) (pad_to_depth ~depth b)
  | Ast.Alt (a, b) -> Ast.alt (pad_to_depth ~depth a) (pad_to_depth ~depth b)
  | Ast.Star a -> Ast.star (pad_to_depth ~depth a)
  | Ast.Repeat ((Ast.Class _ as a), m, Some n) when m = n && m > depth && m mod depth <> 0 ->
      let aligned = m / depth * depth in
      Ast.concat (Ast.repeat a aligned (Some aligned)) (repeat_concat a (m - aligned))
  | Ast.Repeat (a, m, n) -> Ast.repeat (pad_to_depth ~depth a) m n

(* Linearisation.  A "line set" is represented during the traversal as a
   list of reversed class lists, so appending one class is O(lines). *)

exception Too_large

let to_lines ~max_states ~max_lines r =
  let check lines =
    if List.length lines > max_lines then raise Too_large;
    let states = List.fold_left (fun acc l -> acc + List.length l) 0 lines in
    if states > max_states then raise Too_large;
    lines
  in
  let cross a b =
    (* every line of [a] followed by every line of [b] *)
    check (List.concat_map (fun la -> List.map (fun lb -> lb @ la) b) a)
  in
  let union a b =
    let mem l ls = List.exists (fun l' -> List.length l = List.length l' && List.for_all2 Charclass.equal l l') ls in
    check (List.fold_left (fun acc l -> if mem l acc then acc else l :: acc) (List.rev a) b |> List.rev)
  in
  let rec lines r =
    match r with
    | Ast.Epsilon -> [ [] ]
    | Ast.Class cc -> [ [ cc ] ]
    | Ast.Concat (a, b) -> cross (lines a) (lines b)
    | Ast.Alt (a, b) -> union (lines a) (lines b)
    | Ast.Star _ -> raise Too_large
    | Ast.Repeat (a, m, n) -> (
        let la = lines a in
        let rec power k = if k <= 0 then [ [] ] else cross la (power (k - 1)) in
        match n with
        | None -> raise Too_large
        | Some n ->
            let base = power m in
            let rec extend acc k cur =
              if k > n then acc
              else
                let cur = cross la cur in
                extend (union acc cur) (k + 1) cur
            in
            extend base (m + 1) base)
  in
  match lines r with
  | ls ->
      (* drop the empty line: automata report non-empty matches only *)
      let ls = List.filter (fun l -> l <> []) ls in
      if ls = [] then None else Some (List.map (fun l -> Array.of_list (List.rev l)) ls)
  | exception Too_large -> None
