(** The Table-1 cost model: {!Exec.array_events} → picojoules.

    Two views of the same model.  {!counter} is the one runs use: it
    counts, per array, how long each tile stays in each state and what
    the array does beyond its tiles, as integers, and {!price} turns the
    counts into picojoules once per report.  {!charge} and {!of_events}
    price one symbol at a time, for per-symbol traces.  Both read every
    term from the same {!tables}, so the counted energy equals the sum
    of the per-symbol charges up to float rounding. *)

val matching_pj : Arch.t -> enabled_cols:int -> float
(** State-matching energy of one powered tile at one symbol. *)

val bv_phase_pj : Arch.t -> bv_cols:int -> iterations:int -> float
(** Energy of one tile's bit-vector-processing phase at one symbol. *)

(** {1 Whole-symbol costing} *)

val num_categories : int

val num_modes : int
val mode_index : Engine.mode -> int

type tables
(** The Table-1 terms of one architecture, tabulated by the small
    integers they depend on (enabled columns, active rows, BV columns,
    cross signals) plus the per-symbol constants.  Immutable; safe to
    share across domains. *)

val tables : Arch.t -> tables
(** The tables for [arch], cached for the last architecture asked for
    (compared physically). *)

val charge :
  tables -> Exec.array_events -> cat_pj:float array -> mode_pj:float array -> int
(** Zero the caller's scratch arrays, charge one symbol into them
    ([cat_pj] indexed by {!Energy.index}, [mode_pj] by {!mode_index}, with
    the coverage {!symbol_cost} describes) and return its cycles
    ([1 + stall]).  Allocates nothing and calls no C primitive.  Every
    sum receives its terms in the model's fixed order, so identical
    events yield bit-identical floats, which is what makes sequential and
    parallel schedules comparable. *)

type symbol_cost = {
  cycles : int;  (** 1 + stall. *)
  cat_pj : float array;  (** Indexed by {!Energy.index}. *)
  mode_pj : float array;
      (** Indexed by {!mode_index}; covers tile-level energy (matching,
          transition, controller, tile leakage, BV phases) — array-level
          costs (global routing/controller, I/O, array leakage) are not
          mode-attributable. *)
}

val of_events : Arch.t -> Exec.array_events -> symbol_cost
(** {!charge} into fresh arrays: the same floats. *)

(** {1 Counted energy} *)

type counter
(** One array's energy as integer counts.  A tile's price for one
    symbol depends only on its state — powered, enabled columns, active
    states, mode — and, for its leakage, on the symbol's cycles.  The
    counter keeps each tile's current {e interval}: the state it opened
    with and the symbol and cycle totals at that moment.  When the
    tile's state changes, the interval closes into counts keyed by the
    Table-1 term they price: matching by (mode, enabled columns),
    transition by (mode, active states), the tile controller by mode,
    and tile leakage cycles by (mode, powered).  BV phases are counted
    by (mode, BV columns, iterations) and cross signals by value, both
    over intervals of an equal phase list or value, and symbols and
    cycles in total.  Integer
    sums do not depend on where the stream was cut, so a counter priced
    whole, or flushed, saved and restored at any symbol, prices to the
    same floats. *)

val counter : unit -> counter
(** An empty counter; it sizes itself from the first events it sees. *)

val count : counter -> Exec.array_events -> unit
(** Count one symbol of one array.  Compares every tile's state with
    its intervals'; only changed tiles, a changed phase list and a
    changed cross value touch the keyed counts.  Phase lists compare by
    record identity, as {!Exec.step} hands them out.  Allocates nothing once the counter holds
    every key the stream uses (a handful per array on the shipped
    suites).  Raises [Invalid_argument] on a tile with 2{^ 24} active
    states or enabled columns or more, and on a BV phase with negative
    iterations or columns, or with 2{^ 24} columns or more. *)

val price : tables -> counter -> cat_pj:float array -> mode_pj:float array -> unit
(** Zero the caller's arrays and price the counts into them, with
    {!charge}'s coverage: every keyed count in ascending key order, then
    the per-mode and per-array counts.  Closes the open intervals first
    ({e flushes}), which leaves the counts' meaning unchanged. *)

val save : counter -> int array
(** Flush, then the counts as words: symbols, cycles, the controller
    and leakage counts, then one (key, count) pair per keyed count —
    11 words plus two per key. *)

val copy : src:counter -> dst:counter -> unit
(** Flush [src], then make [dst]'s counts equal to [src]'s; every tile
    of [dst] opens a fresh interval at the next symbol.  Allocates
    nothing unless [src]'s key table outgrew [dst]'s.  A run rolls an
    array back through a copy kept at the chunk start. *)

val restore : counter -> int array -> unit
(** Inverse of {!save}; every tile opens a fresh interval at the next
    symbol.  Raises [Invalid_argument] on words {!save} cannot have
    written. *)
