(** Per-array execution context — the middle layer of the simulation
    stack (engines → {b exec} → sinks → scheduler).

    [build] instantiates one {!Engine.t} per mapper group present in the
    array, lists each engine's (physical tile, local tile) pieces, sums
    each tile's idle baseline, numbers the BV-phase slots and fills the
    array's byte-to-engines wake table; [step] advances the array by one
    input symbol and updates the context's one {!array_events} record in
    place — the only thing downstream consumers (the energy counter,
    {!Sink.t}) ever see.  Exec owns all engine plumbing; sinks own all
    cost/observability policy. *)

type t

val build : Mapper.placement -> Mapper.placed_tile array -> t
(** Raises [Invalid_argument] when a piece names an LNFA-mode unit
    (LNFA lines are placed as bins), and when a tile's pieces could
    together reach a tile word's field limit (their {!Engine.tile_bound}s
    summed by {!Engine.tile_add}). *)

val engines : t -> Engine.t array
(** The transient-fault surface: sinks may flip stored state bits here
    ({!Engine.flip_state_bit}) but must not read per-tile statistics —
    those arrive through {!array_events}. *)

val awake_count : t -> int
(** The engines in the awake set (see {!step}).  After a bit-parallel
    {!step} this is the number of engines whose state is not
    {!Engine.idle}. *)

val tile_modes : t -> Engine.mode array

val snapshot : t -> int array array
(** Per-engine {!Engine.snapshot}s, in engine order — the whole mutable
    surface of the array between symbols, one blit per engine. *)

val snapshot_into : t -> int array array -> unit
(** {!snapshot} into the buffers of an earlier {!snapshot} of the same
    array, allocating nothing; raises [Invalid_argument] on any shape
    mismatch. *)

val restore : t -> int array array -> unit
(** Restore into an exec context built from the same placement and tile
    set; raises [Invalid_argument] on any shape mismatch.  Every engine
    rejoins the awake set, every tile goes back to its idle baseline
    with every engine at its idle share, and the next {!step} counts
    every engine it leaves live. *)

val snapshot_flat : t -> int array array
(** {!snapshot} under its old name, kept for the benchmark harness; to
    be deleted by the next benchmark change. *)

(** {1 Per-symbol events} *)

type bv_phase = {
  p_mode : Engine.mode;
  p_bv_cols : int;  (** BV storage columns of the triggering tile. *)
  p_iterations : int;  (** Word updates in this processing phase. *)
  p_stall : int;  (** Stall cycles this phase alone would impose. *)
}

type array_events = {
  mutable sym : int;  (** Input offset of this symbol. *)
  mutable symbol : char;
  mutable stall : int;  (** Extra cycles after this symbol (max over phases). *)
  mutable cross : int;  (** Cross-tile signals fired (global switch rows). *)
  mutable reports : int;  (** Reporting-STE activations, all engines. *)
  tiles : int array;
      (** Indexed by physical tile: the sum of its pieces' {!Engine}
          tile words, so its active STEs and enabled columns over all
          pieces, powered iff some piece powers it. *)
  modes : Engine.mode array;  (** Indexed by physical tile: {!tile_modes}. *)
  bv_phases : bv_phase array;
      (** The first [n_phases] entries: one per (engine, tile) entering
          bit-vector processing, in engine order, the same record for as
          long as the pair stays in the phase.  Entries past [n_phases]
          are stale. *)
  mutable n_phases : int;
}

val step : Arch.t -> t -> sym:int -> char -> array_events
(** Advance the whole array by one symbol.  The architecture descriptor
    determines BV-phase iteration counts and stall cycles (only
    NBVA-capable designs trigger phases).  The returned record is owned
    by [t] and updated in place by the next [step]: consume it before
    stepping again, and do not mutate it.  Allocates nothing in the
    steady state (the BV-phase records are built on the first step with
    a given architecture).

    {b Awake set.}  [step] steps only the engines in its awake set
    (every engine whose state may be non-zero) and those the byte wakes
    from the zero state, in ascending engine order, through
    {!Engine.step_live}.  A step has three outcomes: a state left
    all-zero drops the engine from the set without touching its record
    ([Idle]), an unchanged state keeps the record unless it is stale
    ([Unchanged]), and a changed state (or a stale record) is projected
    ([Projected]).  So every engine left in the set has a record that
    projects its state, and an engine outside it counts at its idle
    share.  Skipping an idle engine is exact until the byte wakes it or
    a write from outside sets its bit again.  Such writes must go
    through {!Engine.restore}, {!Engine.flip_state_bit} or {!restore},
    which mark the records stale and wake the engines they touch; a
    table write must {!Engine.invalidate} the engines that read it.
    Stepping an engine of [t] directly leaves the set behind until the
    next {!restore}.

    {b Deltas.}  The record counts every engine at a share: its record
    while it is in the awake set, its idle share (the projection of the
    zero state) outside.  Only [Projected] and [Idle] change a share;
    [step] then adds new minus old to each tile whose piece moved (one
    add of words per piece), to the cross and report totals, and to the
    set of BV-phase slots, from which it emits the phases in engine
    order.  An [Unchanged] engine, and an engine left out, touch
    nothing.  The record is field for field what stepping every engine
    and summing every piece gives.

    With [Nbva.kernel] set to [Reference] there are no shortcuts: every
    engine runs {!Engine.step} and every tile is summed from all of its
    pieces' records, so a reference run checks the awake set, the kept
    records, the deltas and the baselines.  The next fast [step] after a
    reference one starts over, as after a {!restore}. *)

val clone_fresh : t -> t
(** A clone sharing all compiled structure (tile pieces, idle baselines,
    BV-phase slots, wake table) with fresh run state, its own awake set,
    counted shares and event record — equivalent to [build] on the same
    placement without deriving the pieces, the baselines and the wake
    table again.  The integrity sentinel replays its windows on one
    clone per array. *)
