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
    per-state successor mask rows packed into one flat word table, dense
    BV-STE list with a precomputed byte-match table, and the 256-byte
    [wake] table of {!wakes}), built once by {!of_ast}. *)

type t = {
  stes : ste array;
  succs : int array array;
  preds : int array array;
  initial : bool array;
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
val cc_of : ste -> Charclass.t

(** {1 Execution} — same match conventions as {!Nfa.run}. *)

type run_state

val state_words : t -> int
(** Arena words of one stream's whole mutable state: the next/avail
    scratch masks, the active mask, and every BV vector.  This is the
    exact capacity {!start} allocates, so an engine packing several
    executors into one shared {!Arena} can size it as the sum of their
    [state_words]. *)

val start : ?arena:Arena.t -> t -> run_state
(** Fresh (empty-input) run state.  All mutable words are allocated from
    [arena] when given ([state_words t] words are consumed), else from a
    private arena of that capacity plus one trailing {!Arena.guard} word
    — either way the state is a contiguous word range, so cloning or
    checkpointing a stream is one blit of the arena.  The two scratch
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
    precomputed byte-match bytes.  The steady-state loop allocates
    nothing.  The new active mask is cut to the automaton width, so a
    corrupted mask row never leaves a bit past it. *)

val step_reference : t -> run_state -> char -> bool
(** The scalar pre-bit-parallel kernel (per-state predecessor probing),
    kept as the differential-testing reference.  Bit-identical to {!step}
    on every input: same return value, active vector, and BV vectors. *)

(** {1 Idle fast path}

    From the all-zero state a byte leaves some live word non-zero exactly
    when it lies in the class of some initial STE.  An engine whose live
    words are all zero can therefore skip {!step} for every other byte:
    the state stays zero and no match ends. *)

val wakes : t -> char -> bool
(** The byte lies in the class of some initial STE (Plain or BV): one
    load from the plan's sealed 256-byte [wake] table. *)

val idle : run_state -> bool
(** Every live word — the active mask and every BV vector — is zero.
    Reads the words on every call; scratch words are not read. *)

val asleep : t -> run_state -> char -> bool
(** [not (wakes t c) && idle st]: stepping [c] would leave the state
    all-zero and report nothing, so the caller may skip {!step}. *)

type kernel = Bit_parallel | Reference

val kernel : kernel ref
(** Kernel selector consulted by {!step_selected} (default
    [Bit_parallel]); lets the whole simulator stack, benchmarks and CI
    swap kernels for differential runs.  Set it only between runs. *)

val step_selected : t -> run_state -> char -> bool
(** {!step} or {!step_reference} according to {!kernel}. *)

val mask_table_stats : t -> int * int
(** [(physical, logical)] mask-vector counts of the execution plan: the
    256 per-byte label masks, the per-state successor masks and the
    initial/final masks are hash-consed at construction, so [physical]
    is typically far below [logical]. *)

val plan_tables : t -> (string * int array) list
(** The execution plan's immutable int tables ([masks], [labels_row],
    [succ_row], ...) as live references, by name — the regions the
    integrity layer CRC-seals at run start, re-verifies on its sweep
    cadence, and repairs from pristine copies.  Callers other than the
    integrity layer (and fault injectors) must not mutate them. *)

val plan_bytes : t -> (string * Bytes.t) list
(** Same, for the plan's byte tables: the per-BV-STE [bv_match] table and
    the [wake] table of {!wakes}. *)

val bv_active_count : t -> run_state -> int
(** Number of BV-STEs whose vector is currently nonzero — the trigger count
    of the bit-vector-processing phase. *)

val outputs : run_state -> Bitvec.t
(** Packed per-STE output activation after the last {!step} (bit [q] is
    STE [q]); the hardware simulator ANDs tile masks against this to
    attribute activity to tiles.  Mutate only for fault injection. *)

val active_slice : run_state -> int array * int
(** The activation words of {!outputs} as a raw [(arena words, offset)]
    slice — [words_for (num_states t)] consecutive entries.  For
    specialized steppers (the lazy DFA) whose per-symbol hot path reads
    and writes whole packed activation sets and cannot afford the
    checked {!Bitvec} accessors.  A writer must store only words the
    kernel itself normalised (no bits at or past the automaton width),
    or every digest and comparison downstream breaks. *)

val vectors : run_state -> Bitvec.t option array
(** Per-STE bit vectors ([None] for plain STEs; do not mutate). *)

val reports : t -> run_state -> int
(** Number of final STEs active after the last step — the hardware's
    report count for this symbol. *)

val active_count : t -> run_state -> int
val match_ends : t -> string -> int list
val count_matches : t -> string -> int
val pp : Format.formatter -> t -> unit
