(** Per-array execution context — the middle layer of the simulation
    stack (engines → {b exec} → sinks → scheduler).

    [build] instantiates one {!Engine.t} per mapper group present in the
    array and resolves each physical tile to its (engine, local-tile)
    pieces; [step] advances every engine by one input symbol and
    refreshes the context's one {!array_events} record in place — the
    only thing downstream consumers ({!Sink.t}) ever see.  Exec owns all
    engine plumbing; sinks own all cost/observability policy. *)

type t

val build : Mapper.placement -> Mapper.placed_tile array -> t

val engines : t -> Engine.t array
(** The transient-fault surface: sinks may flip stored state bits here
    ({!Engine.flip_state_bit}) but must not read per-tile statistics —
    those arrive through {!array_events}. *)

val tile_modes : t -> Engine.mode array
val num_tiles : t -> int

val snapshot : t -> int array array
(** Per-engine {!Engine.snapshot}s, in engine order — the whole mutable
    surface of the array between symbols, one blit per engine. *)

val restore : t -> int array array -> unit
(** Restore into an exec context built from the same placement and tile
    set; raises [Invalid_argument] on any shape mismatch. *)

val snapshot_flat : t -> int array array
(** {!snapshot} under its old name, kept for the benchmark harness; to
    be deleted by the next benchmark change. *)

(** {1 Per-symbol events} *)

type tile_events = {
  t_mode : Engine.mode;
  mutable t_powered : bool;
  mutable t_enabled_cols : int;  (** Columns precharged for matching, all pieces. *)
  mutable t_active_states : int;
}

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
  tiles : tile_events array;  (** Indexed by physical tile. *)
  bv_phases : bv_phase array;
      (** The first [n_phases] entries: one per (engine, tile) entering
          bit-vector processing, in engine order.  Entries past
          [n_phases] are stale. *)
  mutable n_phases : int;
}

val step : Arch.t -> t -> sym:int -> char -> array_events
(** Advance the whole array by one symbol.  The architecture descriptor
    determines BV-phase iteration counts and stall cycles (only
    NBVA-capable designs trigger phases).  The returned record is owned
    by [t] and refreshed in place by the next [step]: consume it before
    stepping again, and do not mutate it.  Allocates nothing in the
    steady state (the BV-phase records are built on the first step with
    a given architecture). *)

val clone_fresh : t -> t
(** A clone sharing all compiled structure with fresh run state and its
    own event record — equivalent to [build] on the same placement
    without deriving the tile maps and the bins' Shift-And tables again.
    The integrity sentinel replays its windows on one clone per array. *)
