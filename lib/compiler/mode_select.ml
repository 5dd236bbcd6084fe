type mode = Nfa_mode | Nbva_mode | Lnfa_mode

let mode_names = function Nfa_mode -> "NFA" | Nbva_mode -> "NBVA" | Lnfa_mode -> "LNFA"

let decide ~(params : Program.params) r =
  let after_unfold = Rewrite.unfold_for_nbva ~threshold:params.Program.unfold_threshold r in
  if Ast.has_bounded_repetition after_unfold then Nbva_mode
  else
    match Lnfa_compile.try_compile ~params r with
    | Some _ -> Lnfa_mode
    | None -> Nfa_mode

(* DFA eligibility (the per-pattern DFA/NFA cost model of arXiv
   2210.10077): determinising pays off exactly when the execution
   automaton the engine will actually run — compiled at the engine's own
   unfold threshold, which differs from the mode-decision threshold — is
   small and carries no BV-STEs.  BV vectors are per-run mutable state,
   not a function of the active set, so counter-carrying placements can
   never determinise; large NFAs risk subset blowup and would thrash the
   bounded cache.  The hint is advisory: the engine re-checks structural
   eligibility against the automaton it builds. *)
let exec_hint ~(params : Program.params) exec =
  if Nbva.num_bv_stes exec = 0 && Nbva.num_states exec <= params.Program.dfa_state_budget then
    Program.H_dfa { dfa_cache_states = params.Program.dfa_cache_states }
  else Program.H_default

let decide_exec ~params r =
  match Nbva.compile ~threshold:2 r with
  | exec -> exec_hint ~params exec
  | exception Invalid_argument _ -> Program.H_default

(* An NFA unit already carries the threshold-2 executor, so its hint is
   read off that value instead of compiling the executor a second time. *)
let of_nfa_unit ~params ~source r (u : Program.nfa_unit) =
  { Program.source; ast = r; kind = Program.U_nfa u; hint = exec_hint ~params u.Program.exec }

let compile_as mode ~params ~source r =
  match mode with
  | Nfa_mode -> Some (of_nfa_unit ~params ~source r (Nfa_compile.compile r))
  | Nbva_mode ->
      Some
        {
          Program.source;
          ast = r;
          kind = Program.U_nbva (Nbva_compile.compile ~params r);
          hint = decide_exec ~params r;
        }
  | Lnfa_mode ->
      Option.map
        (fun u -> { Program.source; ast = r; kind = Program.U_lnfa u; hint = decide_exec ~params r })
        (Lnfa_compile.try_compile ~params r)

let compile ~params ~source r =
  match compile_as (decide ~params r) ~params ~source r with
  | Some c -> c
  | None -> (* the decision graph only picks feasible modes *) assert false

let compile_result ~params ~source r =
  (* the decision graph only picks feasible modes; a residual
     [Invalid_argument] from a backend means the construct is beyond what
     the target implements *)
  match compile ~params ~source r with
  | c -> Ok c
  | exception Invalid_argument msg -> Error (Compile_error.v source (Compile_error.Unsupported msg))

let parse_and_compile ~params s =
  match Parser.parse_result s with
  | Error e -> Error (Compile_error.v s (Compile_error.Parse_error e))
  | Ok p -> compile_result ~params ~source:s p.Parser.ast
