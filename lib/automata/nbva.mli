(** Nondeterministic bit vector automata (paper §2.1, [20, 22]).

    An NBVA extends a homogeneous NFA with states that carry a bit vector:
    a {e BV-STE} compresses the unfolded chain of a single-class bounded
    repetition [cc{m}] or [cc{0,k}] into one state plus an [m]- or [k]-bit
    vector.  Bit [j] (0-based) set means "the chain has consumed [j+1]
    repetitions in some run".

    Per input symbol, a BV-STE behaves as the paper's BV actions compose:
    if the symbol matches its class the vector shifts left ([shft]) and the
    first bit is set when a predecessor fired on the previous symbol
    ([set1]); otherwise the vector clears (the chain dies, which is the
    hardware's reset-on-inactive plus overflow check).  The read action
    gates the state's output: [r(m)] succeeds when bit [m-1] is set,
    [rAll] when any bit is set. *)

type read_action = Read_exact of int | Read_all

type ste =
  | Plain of Charclass.t
  | Bv of { cc : Charclass.t; size : int; read : read_action }

type exec_plan
(** Bit-parallel execution tables (hash-consed per-byte label and
    per-state successor mask rows packed into one flat word table, a
    mask row of the BV-STE positions, dense BV-STE list with each
    vector's arena offset and width, a precomputed byte-match table,
    and the 256-byte [wake] table of {!wake_bytes}), built once by
    {!of_ast}. *)

type t = {
  stes : ste array;
  succs : int array array;
  preds : int array array;
  initial : bool array;
  initial_states : int array;  (** The states [initial] marks, ascending. *)
  finals : bool array;
  accepts_empty : bool;
  plan : exec_plan;
}

val of_ast : Ast.t -> t
(** Generalised Glushkov construction over an AST whose residual [Repeat]
    nodes are exactly the vector-implemented ones: every remaining bounded
    repetition must have a single-class body and be of the form [cc{m}]
    (exact) or [cc{0,k}] (optional run) — the shapes produced by
    {!Rewrite.unfold_for_nbva} followed by {!Rewrite.split_bounded}.
    Raises [Invalid_argument] on any other residual repetition. *)

val compile : threshold:int -> Ast.t -> t
(** [of_ast] after the two rewriting passes, i.e. the full §4.1 pipeline
    (without hardware splitting, which lives in the compiler library). *)

val num_states : t -> int
val num_bv_stes : t -> int
val total_bv_bits : t -> int

(** {1 Execution} — same match conventions as {!Nfa.run}. *)

type run_state

val start : t -> run_state
(** Fresh (empty-input) run state.  All mutable words live in one
    private arena — the next/avail scratch masks, the active mask and
    every BV vector — plus one trailing {!Arena.guard} word, so cloning
    or checkpointing a stream is one blit of the arena.  The two scratch
    masks come first; the live words (active mask, then every BV vector
    in state order) follow as one contiguous range, which {!idle} reads. *)

val run_arena : run_state -> Arena.t
(** The arena holding this stream's mutable words (for flat snapshot /
    restore of everything at once). *)

val step : t -> run_state -> char -> bool
(** [true] when a match ends at this symbol.  This is the bit-parallel
    kernel: Plain-STE availability and activation are computed word-wise
    over the arena's raw word array against the plan's flat mask table;
    BV-STEs get scalar vector updates driven from a dense index list with
    precomputed byte-match bytes, on the vectors' raw arena words.
    While no vector is live it visits only the available BV-STEs (the
    set bits of availability AND the BV-STE row, each ranked into its
    dense index), the only ones a byte can start.  The steady-state
    loop allocates nothing.  The new active mask is cut to the automaton
    width, so a corrupted mask row never leaves a bit past it.

    The step sets {!changed} when it changes the live words: the
    copy-back compares every new activation word with the old one, and
    every BV vector the step writes counts as a change, whether or not
    its bits moved.  It never clears the flag.  A BV update that would
    leave a zero vector zero — the byte is outside the state's class, or
    the state is not available — is skipped (no write, no change, no
    firing); the plan-index range checks run before that test, so a
    corrupted index still raises [Invalid_argument], after setting
    {!changed}.  It also sets {!live}. *)

val step_reference : t -> run_state -> char -> bool
(** The scalar pre-bit-parallel kernel (per-state predecessor probing),
    kept as the differential-testing reference.  Bit-identical to {!step}
    on every input: same return value, active vector, and BV vectors.
    Raises the same [Invalid_argument] as {!step} when a BV-STE has no
    vector in [st] (a run state started from another automaton).  It
    always sets {!changed}, and sets {!live}. *)

val changed : run_state -> bool
(** Whether the live words may have changed since the flag was last
    cleared ([set_changed st false]): [false] only when every {!step}
    since then left the active mask and every BV vector exactly as it
    found them.  Conservative — a step that rewrote a vector with its
    own bits still sets it — so a caller that clears the flag when it
    derives something from the state may keep what it derived while the
    flag reads [false].  [true] on a fresh state and after
    {!step_reference}.  Writes from outside a step (an arena restore, a
    fault flip) do not set it: whoever makes them calls {!set_changed}. *)

val set_changed : run_state -> bool -> unit
(** Set or clear the {!changed} flag. *)

val live : run_state -> bool
(** Whether some live word — the active mask or a BV vector — was
    non-zero after the last {!step} or {!step_reference}: [not (idle st)]
    at that moment, derived from the step's own copy-back and vector
    updates instead of a second scan.  [false] on a fresh state.  Writes
    from outside a step do not update it. *)

(** {1 Idle skip}

    From the all-zero state a byte leaves some live word non-zero exactly
    when it lies in the class of some initial STE.  A state whose live
    words are all zero therefore stays all-zero, and no match ends, on
    every other byte: a caller may skip {!step} there. *)

val wake_bytes : t -> Bytes.t
(** The plan's 256-byte [wake] table (the live, sealed reference): byte
    [b] non-zero iff [b] lies in the class of some initial STE (Plain or
    BV).  Do not mutate. *)

val idle : run_state -> bool
(** Every live word — the active mask and every BV vector — is zero.
    Reads the words on every call; scratch words are not read. *)

val fold_live : ('a -> int -> 'a) -> 'a -> run_state -> 'a
(** Fold over the live words — the active mask, then every BV vector in
    state order, as {!idle} reads them — in arena order. *)

type kernel = Bit_parallel | Reference

val kernel : kernel ref
(** Kernel selector consulted by {!step_selected} (default
    [Bit_parallel]); lets the whole simulator stack, benchmarks and CI
    swap kernels for differential runs.  Set it only between runs. *)

val step_selected : t -> run_state -> char -> bool
(** {!step} or {!step_reference} according to {!kernel}. *)

val plan_tables : t -> (string * int array) list
(** The execution plan's immutable int tables ([masks], [labels_row],
    [succ_row], [bv_states], [bv_vecs]) as live references, by name —
    the regions the integrity layer checksum-seals at run start,
    re-verifies on its sweep cadence, and repairs from pristine copies.  Callers other than the
    integrity layer (and fault injectors) must not mutate them. *)

val plan_bytes : t -> (string * Bytes.t) list
(** Same, for the plan's byte tables: the per-BV-STE [bv_match] table and
    the [wake] table of {!wake_bytes}. *)

val outputs : run_state -> Bitvec.t
(** Packed per-STE output activation after the last {!step} (bit [q] is
    STE [q]); the hardware simulator ANDs tile masks against this to
    attribute activity to tiles.  Mutate only for fault injection. *)

val vectors : run_state -> Bitvec.t option array
(** Per-STE bit vectors ([None] for plain STEs; do not mutate). *)

val reports : t -> run_state -> int
(** Number of final STEs active after the last step — the hardware's
    report count for this symbol. *)

val match_ends : t -> string -> int list
