let classify labels =
  let single_code = Array.for_all Encoding.fits_single_code labels in
  { Program.labels; single_code }

(* A line must fit in the 16 tiles of one array even unbinned. *)
let line_fits_array (line : Program.lnfa_line) =
  let cap = if line.Program.single_code then Circuit.tile_cam_cols else Circuit.tile_cam_cols / 2 in
  Array.length line.Program.labels <= cap * Circuit.tiles_per_array

(* §4.2: LNFA rewriting may at most double the Glushkov state count. *)
let max_blowup = 2

let try_compile r =
  let glushkov_states = Ast.literal_width (Rewrite.unfold_all r) in
  if glushkov_states = 0 then None
  else
    let max_states = max_blowup * glushkov_states in
    (* cap the alternative count too: each line is a separate LNFA slot *)
    let max_lines = max 16 (max_states / 2) in
    match Rewrite.to_lines ~max_states ~max_lines r with
    | None -> None
    | Some lines ->
        let lines = List.map classify lines in
        if List.for_all line_fits_array lines then
          let states =
            List.fold_left (fun acc l -> acc + Array.length l.Program.labels) 0 lines
          in
          Some { Program.lines; states }
        else None
