type engine_kind = Nfa_engine | Nbva_engine | Shift_and_engine

type engine =
  | M_nfa of Nfa.t
  | M_nbva of Nbva.t
  | M_sa of Shift_and.t list  (* one engine per line group *)

type matcher = { engine : engine; anchored_start : bool; anchored_end : bool }

let default_params = Program.default_params

let engine_of_ast ?(params = default_params) ast =
  match Mode_select.decide ~params ast with
  | Mode_select.Nbva_mode -> M_nbva (Nbva.compile ~threshold:params.Program.unfold_threshold ast)
  | Mode_select.Lnfa_mode -> (
      match Lnfa_compile.try_compile ast with
      | Some u ->
          M_sa
            [ Shift_and.of_bin (List.map (fun l -> l.Program.labels) u.Program.lines) ]
      | None -> M_nfa (Glushkov.compile ast))
  | Mode_select.Nfa_mode -> M_nfa (Glushkov.compile ast)

let matcher_of_ast ?params ?(anchored_start = false) ?(anchored_end = false) ast =
  (* anchored matching runs on the NFA reference engine (the bit-parallel
     engines implement the hardware's always-armed unanchored semantics) *)
  let engine =
    if anchored_start then M_nfa (Glushkov.compile ast) else engine_of_ast ?params ast
  in
  { engine; anchored_start; anchored_end }

let matcher ?params src =
  match Parser.parse_result src with
  | Error e -> Error e
  | Ok p -> (
      match
        matcher_of_ast ?params ~anchored_start:p.Parser.anchored_start
          ~anchored_end:p.Parser.anchored_end p.Parser.ast
      with
      | m -> Ok m
      | exception Invalid_argument e -> Error e)

let matcher_exn ?params src =
  match matcher ?params src with Ok m -> m | Error e -> invalid_arg ("Rap.matcher: " ^ e)

let engine_kind m =
  match m.engine with
  | M_nfa _ -> Nfa_engine
  | M_nbva _ -> Nbva_engine
  | M_sa _ -> Shift_and_engine

let find_all m input =
  let ends =
    match m.engine with
    | M_nfa nfa -> Nfa.match_ends ~anchored_start:m.anchored_start nfa input
    | M_nbva nbva -> Nbva.match_ends nbva input
    | M_sa engines ->
        List.concat_map (fun sa -> Shift_and.run sa input) engines |> List.sort_uniq compare
  in
  if m.anchored_end then List.filter (fun p -> p = String.length input - 1) ends else ends

let count_matches m input = List.length (find_all m input)
let is_match m input = find_all m input <> []

(* ------------------------------------------------------------------ *)
(* Streaming sessions: the same engines driven one symbol at a time, so
   a caller can feed chunked input (files, sockets) without ever
   materialising it.  Feeding chunks [c1; ...; cn] yields exactly
   [find_all m (c1 ^ ... ^ cn)] across feeds + finish. *)

type session_state =
  | S_nfa of Nfa.stepper
  | S_nbva of Nbva.run_state
  | S_sa of Shift_and.state list

type session = {
  s_matcher : matcher;
  s_state : session_state;
  mutable s_pos : int;  (* absolute offset of the next byte *)
  mutable s_last_hit : bool;  (* a match ended on the last byte fed *)
}

let session m =
  let s_state =
    match m.engine with
    | M_nfa nfa -> S_nfa (Nfa.stepper ~anchored_start:m.anchored_start nfa)
    | M_nbva nb -> S_nbva (Nbva.start nb)
    | M_sa engines -> S_sa (List.map Shift_and.start engines)
  in
  { s_matcher = m; s_state; s_pos = 0; s_last_hit = false }

let session_feed s chunk =
  let m = s.s_matcher in
  let acc = ref [] in
  String.iter
    (fun c ->
      let hit =
        match (s.s_state, m.engine) with
        | S_nfa st, M_nfa nfa -> Nfa.stepper_step nfa st c
        | S_nbva st, M_nbva nb -> Nbva.step_selected nb st c
        | S_sa sts, M_sa engines ->
            List.fold_left2
              (fun acc sa st -> if Shift_and.step sa st c then true else acc)
              false engines sts
        | _ -> assert false
      in
      s.s_last_hit <- hit;
      if hit then acc := s.s_pos :: !acc;
      s.s_pos <- s.s_pos + 1)
    chunk;
  (* end-anchored matches are only knowable at end of stream *)
  if m.anchored_end then [] else List.rev !acc

let session_finish s =
  if s.s_matcher.anchored_end && s.s_last_hit && s.s_pos > 0 then [ s.s_pos - 1 ] else []

let session_pos s = s.s_pos

let rap_arch ?(bv_depth = default_params.Program.bv_depth) () = Arch.rap ~bv_depth

let simulate ?arch ?jobs ?(params = default_params) ~regexes ~input () =
  let arch = match arch with Some a -> a | None -> rap_arch ~bv_depth:params.Program.bv_depth () in
  let parsed =
    List.filter_map
      (fun src ->
        match Parser.parse_result src with
        | Ok p -> Some (src, p.Parser.ast)
        | Error _ -> None)
      regexes
  in
  if parsed = [] then Error "no regex parsed"
  else
    let units, errors = Runner.compile_for arch ~params parsed in
    if units = [] then
      Error
        (match errors with
        | e :: _ ->
            Printf.sprintf "no regex compiled (%s: %s)" e.Compile_error.source
              (Compile_error.message e)
        | [] -> "no regex compiled")
    else
      let placement = Runner.place arch ~params units in
      Ok (Runner.run ?jobs arch ~params placement ~input)

let render_report = Runner.render_report

let version = "1.0.0"
