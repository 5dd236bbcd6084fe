type mode = Nfa_mode | Nbva_mode | Lnfa_mode

let mode_names = function Nfa_mode -> "NFA" | Nbva_mode -> "NBVA" | Lnfa_mode -> "LNFA"

(* The decision, with the lines an LNFA decision compiled the regex to:
   compiling it again would redo the same work. *)
type decision = Nfa | Nbva | Lnfa of Program.lnfa_unit

let decision ~(params : Program.params) r =
  let after_unfold = Rewrite.unfold_for_nbva ~threshold:params.Program.unfold_threshold r in
  if Ast.has_bounded_repetition after_unfold then Nbva
  else match Lnfa_compile.try_compile r with Some u -> Lnfa u | None -> Nfa

let decide ~params r =
  match decision ~params r with Nfa -> Nfa_mode | Nbva -> Nbva_mode | Lnfa _ -> Lnfa_mode

let unit ~source r kind = { Program.source; ast = r; kind }

let compile_as mode ~params ~source r =
  match mode with
  | Nfa_mode -> Some (unit ~source r (Program.U_nfa (Nfa_compile.compile r)))
  | Nbva_mode -> Some (unit ~source r (Program.U_nbva (Nbva_compile.compile ~params r)))
  | Lnfa_mode ->
      Option.map (fun u -> unit ~source r (Program.U_lnfa u)) (Lnfa_compile.try_compile r)

let compile ~params ~source r =
  unit ~source r
    (match decision ~params r with
    | Nfa -> Program.U_nfa (Nfa_compile.compile r)
    | Nbva -> Program.U_nbva (Nbva_compile.compile ~params r)
    | Lnfa u -> Program.U_lnfa u)

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
