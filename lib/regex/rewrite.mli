(** Regex rewriting passes used by the RAP compiler (paper §4).

    All passes are language-preserving: they rewrite the expression without
    changing the set of matched strings (property-tested against the
    reference NFA engine). *)

val unfold_all : Ast.t -> Ast.t
(** Remove every repetition bound: [r{m,n}] becomes [r^m (r?)^(n-m)] and
    [r{m,}] becomes [r^m r*].  This is the input to plain NFA mode and to
    the CAMA / CA baselines. *)

val unfold_for_nbva : threshold:int -> Ast.t -> Ast.t
(** The paper's "unfolding rewriting" (§4.1, Example 4.1): unfold a bounded
    repetition when its finite upper bound is below [threshold], when its
    body is not a single character class (BV-STEs carry exactly one CC), or
    when it is unbounded ([r{m,}] becomes [r^m r*]).  Surviving [Repeat]
    nodes are exactly those a bit vector will implement. *)

val split_bounded : Ast.t -> Ast.t
(** The paper's "bounded repetition rewriting": [r{m,n}] with [0 < m < n]
    becomes [r{m} . r{0,n-m}] so that the two pieces map to the [r(m)] and
    [rAll] read actions.  Leaves exact bounds [r{m}] and optional bounds
    [r{0,n}] untouched. *)

val pad_to_depth : depth:int -> Ast.t -> Ast.t
(** Width alignment (Example 4.2): rewrite an exact bound [cc{m}] into
    [cc{m'} cc^(m-m')] where [m'] is the largest multiple of [depth] not
    exceeding [m], so that the bit vector fills whole BV words.  Bounds
    already aligned, or smaller than [depth], are untouched. *)

val to_lines : max_states:int -> max_lines:int -> Ast.t -> Charclass.t array list option
(** LNFA linearisation (§4.2, Example 4.4): rewrite the regex into a union
    of {e lines} — each line a plain concatenation of character classes,
    executed by Shift-And with single initial and single final state.
    Distributes union over concatenation and unfolds bounded repetitions.
    Returns [None] when the regex contains an unbounded repetition (not
    linearisable) or when the rewriting would exceed [max_states] total
    states or [max_lines] alternatives (the paper bounds the blow-up at 2x
    the Glushkov size). *)
