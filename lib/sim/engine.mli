(** Per-group execution engines with per-tile activity statistics.

    One engine drives one mapper group (a dedicated unit, a shared tile, or
    an LNFA bin) through the input, symbol by symbol, and exposes exactly
    the per-tile event counts the energy model needs: active STEs, enabled
    CAM columns, BV-phase triggers, cross-tile signals, and reports.

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
val of_bin : Binning.bin -> t

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

    {b Idle fast path.}  An engine whose live state words are all zero
    (see {!idle}) and whose input byte wakes no initial state
    ([Nbva.wakes]; for bins, [initial AND labels[c]]) stays all-zero and
    reports nothing, so [step] skips the stepper.  It also skips the
    tile projection while the event record still holds the zero state's
    projection: one bit per engine, cleared whenever a live state is
    projected and by {!clone_fresh}.  Both tests read live data on every
    symbol, so {!restore}, rollbacks and {!flip_state_bit} need no
    hook.  With [Nbva.kernel] set to [Reference] every engine steps and
    projects on every symbol, which keeps the reference run a check on
    the fast path. *)

type events = {
  active : int array;
      (** Active STEs per unit-local tile at this symbol. *)
  enabled : int array;
      (** Columns precharged for state matching: all programmed CC columns
          in NFA/NBVA mode; initial + active columns in LNFA mode. *)
  powered : bool array;
      (** [false] only for power-gated LNFA bin tiles with no initial and
          no active state. *)
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
    returns.  Meaningful only after a [step]. *)

val step_kernel : t -> char -> unit
(** Advance the automaton state only (no projection, no stats) —
    bit-identical in state effect to {!step}, idle skip included.  Lets
    a profiler separate the kernel's cost from the tile projection's. *)

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

val tile_static_cols : t -> int -> int
(** Programmed columns (for area/utilisation). *)

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
    the next {!step} on.  Raises [Invalid_argument] out of range. *)

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

val restore : t -> int array -> unit
(** Inverse of {!snapshot}.  Raises [Invalid_argument] on a length
    mismatch (a snapshot from a different placement). *)

(** {1 Integrity surface}

    The pieces the {!Integrity} layer needs: the immutable compiled
    regions the kernels read between symbols (sealable with CRC-32 and
    repairable from pristine copies), a reference-kernel state advance
    for the shadow-stepping sentinel, and semantic state comparison.

    NFA/NBVA shadow stepping goes through [Nbva.step_reference], which
    reads the automaton's predecessor records instead of the flat plan
    tables — a divergence between the live kernel and a shadow replay
    from clean state therefore also catches plan-table corruption, not
    just state flips.  LNFA bins share one kernel, so their tables are
    covered by the CRC sweep only. *)

type region =
  | R_words of string * int array  (** A live flat int table. *)
  | R_bytes of string * Bytes.t  (** A live byte table. *)
  | R_vecs of string * Bitvec.t array  (** Live mask vectors. *)

val region_name : region -> string

val immutable_regions : t -> region list
(** The compiled tables this engine's kernel reads, as live references —
    shared physically by every {!clone_fresh} clone, so one seal covers
    all streams of a placement. *)

val step_shadow : t -> char -> unit
(** Advance the automaton state through the {e reference} kernel
    (scalar [Nbva.step_reference] for NFA/NBVA engines; the Shift-And
    step for bins, which has no second kernel).  Semantically identical
    to {!step_kernel} on uncorrupted tables. *)

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

val state_equal : t -> t -> bool
(** Compare two engines' semantic inter-symbol state (active vector plus
    materialized BV vectors) — scratch words are ignored, because the
    reference kernel does not write the bit-parallel kernel's scratch. *)

val guards_ok : t -> bool
(** [Arena.guards_ok] of the engine's run-state arena. *)

val rearm_guards : t -> unit
(** Re-arm the arena's guard canaries after a repair that did not go
    through a {!restore} (which carries them implicitly). *)
