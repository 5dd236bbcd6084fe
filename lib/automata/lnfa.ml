type t = { labels : Charclass.t array; finals : bool array }

let of_line labels =
  let n = Array.length labels in
  if n = 0 then invalid_arg "Lnfa.of_line: empty line";
  let finals = Array.make n false in
  finals.(n - 1) <- true;
  { labels; finals }

let of_nfa nfa =
  match Nfa.is_linear nfa with
  | None -> None
  | Some order ->
      let labels = Array.map (fun q -> nfa.Nfa.labels.(q)) order in
      let finals = Array.map (fun q -> nfa.Nfa.finals.(q)) order in
      Some { labels; finals }

let of_ast r = of_nfa (Glushkov.compile r)

