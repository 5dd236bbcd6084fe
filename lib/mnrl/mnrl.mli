(** MNRL-style automata interchange (the format the paper's artifact
    distributes its pre-compiled datasets in; see A.3.4).

    MNRL (MNCaRT Network Representation Language) describes automata
    networks as JSON: a network of homogeneous state nodes, each with an
    id, a symbol set, an enable mode ([onStartAndActivateIn] for initial
    states, [onActivateIn] otherwise), a report flag, and the ids it
    activates.  This module reads and writes that representation for
    {!Nfa.t}, so rule sets can be exchanged with AP-ecosystem tools
    (VASim, ANMLZoo conversions) and persisted after compilation.

    The symbol set uses the bracket syntax of {!Charclass.to_string}. *)

val file_to_string : ?pretty:bool -> (string * Nfa.t) list -> string
(** A whole MNRL file: several networks. *)

val file_of_string : string -> ((string * Nfa.t) list, string) result

val save : path:string -> (string * Nfa.t) list -> unit
val load : path:string -> ((string * Nfa.t) list, string) result
