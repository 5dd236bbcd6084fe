(** Functional cross-validation of the hardware simulator against the
    reference software matchers — the role Hyperscan plays in the paper's
    methodology ("we performed consistency checks ... by comparing matching
    results of the simulator against a production software matcher").

    For every regex, the compiled hardware engine (in whichever mode the
    decision graph picked) must report at exactly the positions the
    Glushkov-NFA ground truth reports.  Each regex is checked on the
    input with its {!Ast.witness} appended, so the ground truth has at
    least one match to check the engine against, not only silence. *)

type failure = {
  source : string;
  mode : string;
  expected : int list;  (** Ground-truth match end positions. *)
  got : int list;  (** Hardware-engine report positions. *)
}

val check_regex :
  params:Program.params -> string * Ast.t -> input:string -> (int, failure) result
(** [Ok n]: the engine reported exactly the ground truth's [n] match
    ends on [input] with the regex's witness appended. *)

val check_set :
  params:Program.params -> (string * Ast.t) list -> input:string -> failure list
(** Empty list = full agreement. *)

val pp_failure : Format.formatter -> failure -> unit
