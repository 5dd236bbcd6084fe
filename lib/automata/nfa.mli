(** Homogeneous nondeterministic finite automata (paper §2.1).

    All incoming transitions of a state carry the state's own character
    class, so the automaton is stored as a labelling plus a plain directed
    graph.  States are integers [0 .. num_states - 1]. *)

type t = {
  labels : Charclass.t array;  (** [labels.(q)] is the class of state [q]. *)
  succs : int array array;  (** Successors, each sorted ascending. *)
  preds : int array array;  (** Predecessors, derived from [succs]. *)
  initial : bool array;  (** States available before any input. *)
  finals : bool array;
  accepts_empty : bool;  (** The language contains the empty string. *)
}

val make :
  labels:Charclass.t array ->
  edges:(int * int) list ->
  initial:int list ->
  finals:int list ->
  accepts_empty:bool ->
  t
(** Validates state indices and builds both adjacency directions. *)

val num_states : t -> int

(** {1 Execution}

    Matching is unanchored on the left: a fresh attempt starts at every
    input position (initial states are available before every symbol), the
    standard semantics of AP-style processors.  A {e match} is reported at
    input position [p] (0-based, inclusive) when some final state is active
    after consuming [input.[p]]; empty matches are not reported. *)

type run = {
  match_ends : int list;  (** Match positions, ascending. *)
  active_per_step : int array;  (** #active states after each symbol. *)
}

val run : ?anchored_start:bool -> t -> string -> run
(** With [anchored_start] (default false), initial states are available
    only before the first symbol: matches must begin at offset 0.  The
    AP-style hardware always runs unanchored; anchoring is a software
    front-end concern (the parser reports [^] via {!Parser.parsed}). *)

type stepper
(** Incremental execution state — what {!run} folds over internally.
    Lets a caller feed the input symbol by symbol (streaming match
    sessions) with identical results to a whole-string {!run}. *)

val stepper : ?anchored_start:bool -> t -> stepper
(** Fresh state positioned before the first symbol. *)

val stepper_step : t -> stepper -> char -> bool
(** Consume one symbol; [true] when a match ends on it. *)

val match_ends : ?anchored_start:bool -> t -> string -> int list

(** {1 Structure queries} *)

val is_linear : t -> int array option
(** [Some order] when the automaton is an LNFA: the states can be arranged
    in a line [order.(0) -> order.(1) -> ...] such that every transition
    goes from a state to its successor in the order and only [order.(0)] is
    initial.  Disconnected or branching automata give [None]. *)
