(** The Shift-And bit-parallel algorithm (paper §2.1, Fig 2, [3]).

    Executes one or several LNFAs with shift / AND / OR word operations.
    This is both the reference software engine for LNFA-mode consistency
    checks and the functional model of RAP's LNFA tiles: the packed layout
    of {!of_bin} is exactly the regex-sliced bin mapping of §3.2.

    Bit [i] of the state vector is state [qi]; patterns packed into one
    engine occupy disjoint contiguous bit ranges.  A bit shifted out of one
    pattern's range leaks into the next pattern's initial position, which
    is harmless because initial positions are re-armed by [maskInitial] on
    every step (unanchored matching). *)

type t

val of_lnfa : Lnfa.t -> t
val of_line : Charclass.t array -> t

val of_bin : Charclass.t array list -> t
(** Pack several single-final lines into one engine (a bin). *)

val width : t -> int
(** Total number of state bits. *)

val num_patterns : t -> int

val tables : t -> (string * Bitvec.t array) list
(** The engine's immutable mask vectors as live references, by name
    ([labels] — the 256 per-byte masks —, [initial], [final]): the
    regions the integrity layer CRC-seals at run start and repairs from
    pristine copies.  Do not mutate outside that layer. *)

(** {1 Execution} *)

type state

val state_words : t -> int
(** Arena words one stream's state occupies ({!Bitvec.words_for} of the
    packed width) — for sizing a shared {!Arena}. *)

val start : t -> state
(** Empty state in a private backing array. *)

val start_in : Arena.t -> t -> state
(** Empty state as an arena slice ([state_words t] words), so an engine
    can snapshot or clone its whole run state as one word blit. *)

val step : t -> state -> char -> bool
(** Advance by one symbol; [true] when some final state is active, i.e. a
    match ends at this symbol. *)

val asleep : t -> state -> char -> bool
(** The state is all-zero and [c] matches no pattern's first position, so
    {!step} would leave it all-zero and report nothing.  Reads the state
    and the sealed masks on every call. *)

val active_count : t -> state -> int
(** Number of active states, for activity/energy statistics. *)

val state_vector : state -> Bitvec.t
(** The packed state bits (do not mutate); bit layout follows the packing
    order of {!of_bin}. *)

val final_hits : t -> state -> int
(** Number of active final states — the hardware's report count. *)

val pattern_offsets : t -> int array
(** Start bit of each packed pattern, in packing order. *)

val run : t -> string -> int list
(** Match end positions, ascending (same convention as {!Nfa.run}). *)

val count_matches : t -> string -> int

val trace : t -> string -> (Bitvec.t * bool) list
(** Per-symbol (state vector after update, match?) — reproduces the
    worked execution of the paper's Fig 2. *)
