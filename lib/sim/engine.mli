(** Per-group execution engines with per-tile activity statistics.

    One engine drives one mapper group (a dedicated unit, a shared tile, or
    an LNFA bin) through the input, symbol by symbol, and exposes exactly
    the per-tile event counts the energy model needs: each tile's state as
    one {!tile_word} (active STEs, enabled CAM columns, powered), BV-phase
    triggers, cross-tile signals, and reports.

    There are two engine kinds.  Bins step [Shift_and].  NFA and NBVA
    units share one plan engine over an [Nbva.t]: the NBVA itself, or an
    NFA unit's compressed executor.  The two modes differ only in data
    built at construction — per-bit tile maps for an NFA unit's
    compressed chains, BV-trigger tiles for NBVA vectors, the cross
    sources and the enabled columns — and step and project through the
    same code.

    {b NFA-mode execution uses a compressed executor}: the unfolded chain
    of a bounded repetition is bit-for-bit the vector of the equivalent
    NBVA (unfolded chain state [s_k] is active iff vector bit [k-1] is
    set), so the engine runs NBVA semantics internally and projects bits
    back onto the unfolded tile layout.  This keeps NFA-mode simulation of
    repetition-heavy benchmarks tractable without changing any observable
    statistic (property-tested against the direct NFA execution).  The
    executor is the unit's own [Program.nfa_unit.exec], compiled once by
    the compiler and shared by every engine and clone built from the
    unit: constructing an engine compiles nothing, it only allocates run
    state and derives the tile maps. *)

type mode = M_nfa | M_nbva | M_lnfa

type t

val mode : t -> mode
val num_tiles : t -> int

(** {1 Construction} *)

val of_nfa_unit : Program.nfa_unit -> t
(** Raises [Invalid_argument] when the unit's executor does not unfold to
    exactly the unit's NFA states (a unit not built by {!Nfa_compile}). *)

val of_nbva_unit : Program.nbva_unit -> t

val of_bin : ?tables:Shift_and.t -> Binning.bin -> t
(** [tables] is the bin's compiled Shift-And engine
    ({!Mapper.placement}'s [bin_tables]), shared with the engine and all
    its clones; without it the bin is compiled here
    ({!Binning.shift_and}). *)

(** {1 Tile words}

    A tile's state, as the energy model prices it, is one non-negative
    int: its active STEs in bits 0–23, its enabled CAM columns (the
    columns precharged for state matching) in bits 24–47, and from bit
    48 the number of pieces that power it.  An engine projects one word
    per local tile, with 0 or 1 powering piece; {!Exec} keeps a physical
    tile at the sum of its pieces' words.  Words add field by field as
    long as each field stays below its limit, 2{^ 24} for the first two
    and 2{^ 14} for the piece count, so a sum decodes to the field sums
    and is powered iff some piece is.  The limits are checked once, not
    per symbol: {!Exec.build} sums each physical tile's pieces'
    {!tile_bound}s with {!tile_add}, and a plan engine builds its tiles'
    static words with {!tile_word}; the per-symbol paths add and decode
    unchecked.  This is the only place the layout is defined:
    other modules decode through the accessors, or, on a per-symbol or
    per-interval path, shift inline by {!tile_bits} and mask with
    {!tile_mask} ([-opaque] builds inline no call across modules). *)

val tile_bits : int
(** Width of the active and enabled fields: 24. *)

val tile_mask : int
(** [(1 lsl tile_bits) - 1]. *)

val tile_word : active:int -> enabled:int -> powering:int -> int
(** Raises [Invalid_argument] unless [0 <= active, enabled < 2^24] and
    [0 <= powering < 2^14]. *)

val tile_active : int -> int
val tile_enabled : int -> int

val tile_add : int -> int -> int
(** Field by field; raises [Invalid_argument] when a sum reaches its
    field's limit. *)

val tile_bound : t -> int -> int
(** A word no projection of local tile [i] exceeds in any field: its
    columns enabled, powered, and as many active states as the tile
    holds (for an NFA unit's compressed chains, every unfolded chain
    bit of the unit).  Raises [Invalid_argument] when the unit fixes a
    field past its limit (2{^ 24} columns or states); so do
    {!of_nfa_unit} and {!of_nbva_unit} for 2{^ 24} columns. *)

(** {1 Stepper names}

    Every NFA/NBVA engine steps through [Nbva.step] (or
    [Nbva.step_reference] when [Nbva.kernel] is [Reference]); bins step
    through [Shift_and.step]. *)

val stepper_name : t -> string
(** ["general"] (NFA/NBVA engines) or ["shift-and"] (bins). *)

val dfa_stats : t -> (int * int * int * bool) option
(** Always [None]: no engine runs a DFA cache.  Kept for callers that
    still report [(cached_states, fills, flushes, disabled)]. *)

(** {1 Stepping}

    [step] is the bottom of the event-stream architecture: one engine
    advance produces one concrete {!events} record, and every consumer
    (energy accounting, stall tracing, per-symbol traces, fault
    observation) folds over that stream — no consumer reads engine
    internals.

    [step] always advances the state and projects it, whether the state
    is live or all-zero; it has no idle skip of its own.  Skipping the
    engines whose state is all-zero is the job of the array that steps
    them ({!Exec}, see {e Array membership} below).  With [Nbva.kernel]
    set to [Reference] the advance goes through [Nbva.step_reference]. *)

type events = {
  tile : int array;
      (** One {!tile_word} per unit-local tile at this symbol: its active
          STEs; its enabled columns, all programmed CC columns in
          NFA/NBVA mode, initial + active columns in LNFA mode; and 1
          powering piece, 0 only for a power-gated LNFA bin tile with no
          initial and no active state. *)
  triggered : bool array;
      (** The tile enters the bit-vector-processing phase at this symbol. *)
  mutable cross : int;
      (** Cross-tile transitions fired at this symbol (global switch rows). *)
  mutable reports : int;  (** Reporting-STE activations at this symbol. *)
}

val step : t -> char -> events
(** Advance by one input symbol.  The returned record is owned by the
    engine and refreshed in place by the next [step]: consume it before
    stepping again, and do not mutate it.  Allocates nothing. *)

val events : t -> events
(** The engine's event record — physically the same record every {!step}
    returns.  A fresh engine's holds the projection of the all-zero
    state, and every {!step} projects the state after it.  Every write
    that changes the state without projecting it ({!step_kernel},
    {!step_shadow}, {!restore}, {!flip_state_bit}) marks the record
    stale, and so does {!invalidate}; the next {!step_live} that leaves
    the state live projects a stale record.  {!step_live} also leaves
    the record behind on a step that leaves the state all-zero.  For
    NFA/NBVA engines the mark is the kernel's [Nbva.changed] flag, which
    every kernel step that changes the state sets; bins project on every
    live {!step_live} and need none. *)

val wake_bytes : t -> Bytes.t
(** 256 bytes, byte [b] non-zero iff [b] leaves the all-zero state
    non-zero: the plan's sealed [wake] table ([Nbva.wake_bytes]) for
    NFA/NBVA engines, {!Shift_and.wake_bytes} for bins.  A live
    reference; do not mutate. *)

type outcome =
  | Idle  (** The state is all-zero; the record was left as it was. *)
  | Unchanged  (** The state is live and the kept record projects it. *)
  | Projected  (** The state is live and the record was re-projected. *)

val step_live : t -> char -> outcome
(** The array's step ({!Exec.step}'s bit-parallel path): advance by one
    symbol, bit-identical in state effect to {!step}, and say what
    became of the state and the record.  It projects only when it must:
    - the state is all-zero: [Idle], and the record is left as it was
      (an array counts an idle engine at its idle share and does not
      read its record);
    - the record is not stale (see {!events}: no kernel step changed
      the state since the last projection, and nothing marked it):
      [Unchanged], keeping the record, which already projects the
      state;
    - otherwise: [Projected], from the tables as they are now, and the
      stale mark is cleared.
    Bins have no change report and project whenever they are live.
    Liveness comes from the step itself ([Nbva.live] for plan
    engines).  Allocates nothing. *)

val step_kernel : t -> char -> unit
(** Advance the automaton state only (no projection, no stats) —
    bit-identical in state effect to {!step}.  It marks the record
    stale (see {!events}).  It skips an engine that is {!idle} when
    the byte is not in its {!wake_bytes}, whose state the step would
    leave all-zero.  Lets a profiler separate the kernel's cost from
    the tile projection's. *)

val idle : t -> bool
(** Every live state word is zero: the active vector and every BV vector
    (NFA/NBVA engines), or the packed Shift-And state (bins). *)

(** {1 Stream clones}

    One compiled placement can serve many independent input streams:
    a clone shares every immutable compiled structure (automata, mask
    tables, tile maps) with its template and carries fresh run state and
    statistics, so B streams pay compilation once. *)

val clone_fresh : t -> t
(** A fresh-state clone: same compiled automaton and tile projection
    (physically shared), its own run state and event record, reset to
    the start of input. *)

(** {1 Static per-tile facts} *)

val tile_bv_cols : t -> int -> int
val max_bv_size : t -> int
(** Largest bit vector hosted by the engine (0 when none) — drives the
    BVAP stall model. *)

val bv_depth : t -> int
(** BV depth of an NBVA engine's unit (words per processing phase);
    0 for other engines. *)

(** {1 Transient-fault surface}

    Every state bit the engine stores between symbols: the active vector
    (one bit per STE) followed by every BV word bit for NFA/NBVA engines,
    the packed Shift-And state vector for LNFA bins.  {!Fault} flips these
    between symbols to model soft errors in the 8T-SRAM cells. *)

val state_bits : t -> int
(** Size of the fault surface: the active vector plus every
    {e materialized} BV word (unmaterialized vectors store no bits, so
    they are not flippable and are not counted). *)

val flip_state_bit : t -> int -> unit
(** Flip one stored state bit (0-based); the corruption propagates from
    the next {!step} on.  The record is marked stale (see {!events})
    and the engine joins its owner's awake set.  Raises
    [Invalid_argument] out of range. *)

(** {1 Snapshot / restore}

    An engine's whole run state lives in one arena (see DESIGN.md,
    "Memory layout"): the stored inter-symbol surface above, the
    stepper's scratch words and a guard word.  All other engine state is
    immutable, so one word copy of the arena is a complete snapshot:
    [restore (snapshot e)] into an engine built from the same placement
    resumes bit-identically — reports, energy events and stall schedules
    included.  Rollbacks, the integrity sentinel and checkpoints all use
    this one form.  The words encode the arena layout, so checkpoints
    that store them bump their version whenever a layout changes. *)

val snapshot : t -> int array
(** A copy of the engine's run-state arena — one blit. *)

val snapshot_into : t -> int array -> unit
(** {!snapshot} into an existing buffer of the same length (an earlier
    snapshot of this engine); raises [Invalid_argument] on a length
    mismatch. *)

val restore : t -> int array -> unit
(** Inverse of {!snapshot}.  The record is marked stale (see {!events})
    and the engine joins its owner's awake set.  Raises
    [Invalid_argument] on a length mismatch (a snapshot from a
    different placement). *)

(** {1 Integrity surface}

    The pieces the {!Integrity} layer needs: the immutable compiled
    regions the kernels read between symbols (sealable with a checksum
    and repairable from pristine copies), a reference-kernel state advance
    for the shadow-stepping sentinel, and semantic state comparison.

    NFA/NBVA shadow stepping goes through [Nbva.step_reference], which
    reads the automaton's predecessor records instead of the flat plan
    tables — a divergence between the live kernel and a shadow replay
    from clean state therefore also catches plan-table corruption, not
    just state flips.  LNFA bins share one kernel, so their tables are
    covered by the checksum sweep only. *)

type region =
  | R_words of string * int array  (** A live flat int table. *)
  | R_bytes of string * Bytes.t  (** A live byte table. *)
  | R_vecs of string * Bitvec.t array  (** Live mask vectors. *)

val region_name : region -> string

val immutable_regions : t -> region list
(** The compiled tables this engine's kernel reads, as live references —
    shared physically by every {!clone_fresh} clone, so one seal covers
    all streams of a placement. *)

val invalidate : t -> unit
(** Mark the record stale (see {!events}).  Whoever writes a region of
    {!immutable_regions} calls it for each engine that reads the region:
    a table write leaves the state alone, so without the mark
    {!step_live} would keep a record projected from the old tables.
    [Integrity.repair] and [rap chaos]'s table flips call it. *)

val step_shadow : t -> char -> unit
(** Advance the automaton state through the {e reference} kernel
    (scalar [Nbva.step_reference] for NFA/NBVA engines; the Shift-And
    step for bins, which has no second kernel).  Semantically identical
    to {!step_kernel} on uncorrupted tables, and like it marks the
    record stale.  An NFA/NBVA engine whose state is all-zero skips the
    step when the byte lies outside the class of every initial STE, as
    the automaton's reference records ([stes], [initial_states]) say,
    not its plan's [wake] table: the reference step would leave it
    all-zero. *)

val state_digest : t -> int -> int
(** [state_digest t acc] folds the engine's semantic inter-symbol state
    (the same vectors {!state_equal} compares) into the rolling digest
    [acc].  The sentinel accumulates this after {e every} symbol of its
    window on both the live and the shadow side: transient corruption
    whose state trace has expired before the window-end {!state_equal}
    (e.g. a flipped bounded-repetition counter bit) still perturbed
    intermediate states — and with them the match events and activity
    statistics already folded into the report — so the per-symbol
    digests diverge even when the end states agree. *)

val digest_mix : int -> int -> int
(** [digest_mix acc w]: one step of {!state_digest}'s fold.  For a fixed
    word [w] it is a bijection of [acc] (xor, odd multiply, xorshift),
    so a fold over a word sequence changes whenever any single word
    does; the integrity seals checksum tables with it too. *)

val state_equal : t -> t -> bool
(** Compare two engines' semantic inter-symbol state (active vector plus
    materialized BV vectors) — scratch words are ignored, because the
    reference kernel does not write the bit-parallel kernel's scratch. *)

val guards_ok : t -> bool
(** [Arena.guards_ok] of the engine's run-state arena. *)

val rearm_guards : t -> unit
(** Re-arm the arena's guard canaries after a repair that did not go
    through a {!restore} (which carries them implicitly). *)

(** {1 Array membership}

    {!Exec} steps an array's engines through an awake set: a bit set
    for every engine whose state may be non-zero.  It drops an engine
    right after a step that leaves it {!idle} ({!step_live} returns
    [false]; the array then counts it at its idle share and does not
    read its record) and steps it again only when a byte in its
    {!wake_bytes} comes or a write sets its bit.  It attaches each
    engine it builds to the array's {!owner}; {!restore} and
    {!flip_state_bit} then set the engine's bit (and, like every write,
    mark its record stale, so the step that follows re-projects it).  A
    detached engine (built directly, or a fresh {!clone_fresh}) belongs
    to no array. *)

type owner = {
  awake : Bitvec.t;  (** One bit per engine of the array, in engine order. *)
  tables : region list;
      (** The array's own compiled tables (its byte-to-engines wake
          table), sealed with the engines' regions. *)
}

val attach : t -> owner -> int -> unit
(** [attach t owner slot] makes [t] engine [slot] of [owner]'s array
    and sets its awake bit. *)

val array_regions : t -> region list
(** [owner.tables] of the array [t] belongs to; [[]] when detached. *)
