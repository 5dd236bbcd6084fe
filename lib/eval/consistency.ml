type failure = { source : string; mode : string; expected : int list; got : int list }

let engine_report_positions engines input =
  let acc = ref [] in
  String.iteri
    (fun p c ->
      let hit = ref false in
      List.iter
        (fun e ->
          let ev = Engine.step e c in
          if ev.Engine.reports > 0 then hit := true)
        engines;
      if !hit then acc := p :: !acc)
    input;
  List.rev !acc

let engines_for ~params (c : Program.compiled) =
  match c.Program.kind with
  | Program.U_nfa u -> ("NFA", [ Engine.of_nfa_unit u ])
  | Program.U_nbva u -> ("NBVA", [ Engine.of_nbva_unit u ])
  | Program.U_lnfa u ->
      (* the regex's lines, binned exactly as the mapper would bin them *)
      let lines = List.mapi (fun i l -> (i, l)) u.Program.lines in
      let bins = Binning.pack ~max_bin_size:params.Program.bin_size lines in
      ("LNFA", List.map Engine.of_bin bins)

let check_regex ~params (source, ast) ~input =
  match Mode_select.compile_result ~params ~source ast with
  | Error e ->
      Error
        {
          source;
          mode = Printf.sprintf "(%s)" (Compile_error.message e);
          expected = [];
          got = [];
        }
  | Ok c ->
      let mode, engines = engines_for ~params c in
      let input = input ^ Ast.witness ast in
      let expected = Nfa.match_ends (Glushkov.compile ast) input in
      let got = engine_report_positions engines input in
      if expected = got then Ok (List.length expected) else Error { source; mode; expected; got }

let check_set ~params regexes ~input =
  List.filter_map
    (fun r -> match check_regex ~params r ~input with Ok _ -> None | Error f -> Some f)
    regexes

let pp_failure fmt f =
  let show l =
    String.concat "," (List.map string_of_int (List.filteri (fun i _ -> i < 10) l))
  in
  Format.fprintf fmt "%s [%s]: expected [%s]%s, got [%s]%s" f.source f.mode (show f.expected)
    (if List.length f.expected > 10 then "..." else "")
    (show f.got)
    (if List.length f.got > 10 then "..." else "")
