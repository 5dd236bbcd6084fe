(** Per-array execution context — the middle layer of the simulation
    stack (engines → {b exec} → sinks → scheduler).

    [build] instantiates one {!Engine.t} per mapper group present in the
    array and resolves each physical tile to its (engine, local-tile)
    pieces; [step] advances every engine by one input symbol and
    assembles a single concrete {!array_events} value — the only thing
    downstream consumers ({!Sink.t}) ever see.  Exec owns all engine
    plumbing; sinks own all cost/observability policy. *)

type t

val build : Mapper.placement -> Mapper.placed_tile array -> t

val engines : t -> Engine.t array
(** The transient-fault surface: sinks may flip stored state bits here
    ({!Engine.flip_state_bit}) but must not read per-tile statistics —
    those arrive through {!array_events}. *)

val tile_modes : t -> Engine.mode array
val num_tiles : t -> int

val snapshot : t -> Engine.snapshot array
(** Per-engine state copies, in engine order — the whole mutable surface
    of the array between symbols (see {!Engine.snapshot}). *)

val restore : t -> Engine.snapshot array -> unit
(** Restore into an exec context built from the same placement and tile
    set; raises [Invalid_argument] on any shape mismatch. *)

val snapshot_flat : t -> int array array
(** Per-engine raw arena copies — one blit per engine, the cheap
    in-memory form for per-chunk rollbacks (see {!Engine.snapshot_flat};
    not an on-disk format). *)

val restore_flat : t -> int array array -> unit
(** Inverse of {!snapshot_flat}; raises [Invalid_argument] on any shape
    mismatch. *)

(** {1 Per-symbol events} *)

type tile_events = {
  t_mode : Engine.mode;
  t_powered : bool;
  t_enabled_cols : int;  (** Columns precharged for matching, all pieces. *)
  t_active_states : int;
}

type bv_phase = {
  p_mode : Engine.mode;
  p_bv_cols : int;  (** BV storage columns of the triggering tile. *)
  p_iterations : int;  (** Word updates in this processing phase. *)
  p_stall : int;  (** Stall cycles this phase alone would impose. *)
}

type array_events = {
  sym : int;  (** Input offset of this symbol. *)
  symbol : char;
  stall : int;  (** Extra cycles after this symbol (max over phases). *)
  cross : int;  (** Cross-tile signals fired (global switch rows). *)
  reports : int;  (** Reporting-STE activations, all engines. *)
  tiles : tile_events array;  (** Indexed by physical tile. *)
  bv_phases : bv_phase list;
      (** One entry per (engine, tile) entering bit-vector processing, in
          engine order. *)
}

val step : Arch.t -> t -> sym:int -> char -> array_events
(** Advance the whole array by one symbol.  The architecture descriptor
    determines BV-phase iteration counts and stall cycles (only
    NBVA-capable designs trigger phases). *)

val clone_fresh : t -> t
(** A clone sharing all compiled structure with fresh run state —
    equivalent to [build] on the same placement without recompiling.
    {!Batch} steps one clone per (stream, array). *)
