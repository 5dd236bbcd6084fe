(** Pure per-symbol cost model: {!Exec.array_events} → picojoules.

    This is the Table-1 energy model of {!Runner.run}, factored out so
    every cost consumer (the energy sink, the per-symbol trace sink,
    future what-if sinks) charges {e exactly} the same picojoules from
    the same events — the single source of truth for circuit costs. *)

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
