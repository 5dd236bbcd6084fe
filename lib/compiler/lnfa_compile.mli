(** LNFA compilation (paper §4.2): line rewriting and encoding choice.

    A regex goes to LNFA mode when {!Rewrite.to_lines} can rewrite it into
    single-final lines without exceeding twice its Glushkov state count
    (the §4.2 budget).  Each line is then classified:
    {ul
    {- {e CAM path} — every class fits a single 32-bit multi-zero-prefix
       code (84% of LNFAs in the paper): 1 CAM column per state;}
    {- {e switch path} — one-hot codes in the local switch: 2 switch
       columns per state.}} *)

val try_compile : Ast.t -> Program.lnfa_unit option
(** [None] when the regex is not linearisable within the blow-up budget,
    or when some line is longer than an array can hold. *)
