(** Linear NFAs (paper §2.1, Example 2.3).

    An LNFA is a homogeneous NFA whose states sit on a line
    [q0 -> q1 -> ... -> qn-1] with transitions only between neighbours and
    a single initial state [q0].  Finals may be any subset (the software
    Shift-And engine handles that); the RAP hardware path additionally
    requires the single final [qn-1], which the compiler obtains by line
    splitting ({!Rewrite.to_lines}). *)

type t = {
  labels : Charclass.t array;  (** [labels.(i)] is the class of [qi]. *)
  finals : bool array;  (** Same length as [labels]. *)
}

val of_line : Charclass.t array -> t
(** Single final state at the end of the line. *)

val of_nfa : Nfa.t -> t option
(** Recognise a linear NFA, reordering states if needed. *)

val of_ast : Ast.t -> t option
(** [of_nfa (Glushkov.compile r)] — the direct structural check, without
    the compiler's line rewriting. *)

