(** Online runtime-integrity checking.

    A long-lived simulation or service run can be silently corrupted by
    a soft error in exactly two kinds of memory: the {e immutable}
    compiled tables the kernels read every symbol (the flat NBVA mask
    table, the per-byte [bv_match] bytes, the Shift-And label masks) and
    the {e mutable} packed run state in each engine's arena.  This
    module turns both into detectable, repairable events:

    - {b seals}: CRC-32 over every immutable region of an array's
      engines, computed once at run start together with pristine copies;
      {!check} re-verifies the CRCs (and the arena guard words) on the
      runner's sweep cadence and before checkpoint writes, and
      {!repair} blits the pristine bytes back over a corrupted table.
    - {b sentinel}: a sampled shadow-replay window — capture the arena
      state, run W symbols, then replay those W symbols on a shadow
      clone through the {e reference} kernel and compare semantic state.
      A flip injected anywhere in the window, or a corrupted mask table
      (which the reference kernel does not read), makes the comparison
      fail.

    Every detection raises [Sim_error.Error (Integrity_violation _)]
    from inside the array's chunk attempt, so the runner's rollback
    machinery can restore the last clean chunk-start snapshot, repair
    the tables and re-execute — and quarantine the array when the same
    region keeps tripping.  All checks are driven by the caller; with no
    {!config} given to the runner nothing here ever runs, and the
    zero-fault overhead is zero. *)

type stats = {
  mutable sweeps : int;  (** CRC/guard sweep passes completed. *)
  mutable sentinel_checks : int;  (** Shadow-replay windows compared. *)
  mutable crc_trips : int;  (** Seal mismatches detected. *)
  mutable guard_trips : int;  (** Arena guard canaries found overwritten. *)
  mutable sentinel_trips : int;  (** Shadow-replay divergences detected. *)
  mutable repairs : int;  (** Pristine-table repairs performed. *)
  mutable heals : int;  (** Rollback + re-execution recoveries that succeeded. *)
  mutable quarantines : int;  (** Arrays given up on after repeated trips. *)
  mutable last_detect_sym : int;
      (** Absolute input symbol at which the most recent violation was
          detected; [-1] before any.  The chaos harness subtracts the
          injection symbol from this to measure time-to-detection. *)
}

val stats_create : unit -> stats

val detections : stats -> int
(** [crc_trips + guard_trips + sentinel_trips]. *)

val note_heal : stats -> unit
val note_quarantine : stats -> unit
(** Counter bumps for the runner's heal machinery.  All counter updates
    in this module (these included) are serialized under one lock, so
    per-array worker domains may trip checks concurrently. *)

type config = {
  sweep_every : int;
      (** Re-verify seals and guards at the first chunk boundary after
          this many symbols per array (every chunk when the chunk size
          is larger).  [0] disables periodic sweeps (checkpoint-time
          verification still runs). *)
  sentinel_every : int;
      (** Start a shadow-replay window every this many symbols; [0]
          disables the sentinel. *)
  sentinel_window : int;  (** Window length in symbols. *)
  max_repairs : int;
      (** Rollback + repair + re-execution attempts per array per chunk
          before the array is quarantined. *)
  stats : stats;
}

val default_config : unit -> config
(** Fresh stats; sweep every 64 Ki symbols, a 64-symbol sentinel window
    every 64 Ki symbols, 2 repairs.  The sentinel replays through the
    (slow) reference kernel, so its window/cadence duty cycle bounds the
    zero-fault overhead; this cadence keeps it well inside 3%. *)

val continuous_config : unit -> config
(** Chaos/soak configuration: sweep every chunk, sentinel windows
    back-to-back ([sentinel_window = sentinel_every]), so every symbol
    of the run is covered by a detector. *)

(** {1 Seals} *)

type seal

val seal : Engine.t array -> seal
(** CRC-seal every immutable region of one array's engines and keep
    pristine copies for {!repair}.  Regions are shared by clones, so a
    seal taken on a template covers its whole group. *)

val check : config -> array_id:int -> sym:int -> seal -> Engine.t array -> unit
(** Verify arena guards, then every sealed CRC.  On the first mismatch:
    count the trip, record [sym] as the detection point, and raise
    [Sim_error.Error (Integrity_violation _)] naming the region. *)

val repair : config -> seal -> Engine.t array -> unit
(** Blit every pristine copy back over its live region and re-arm every
    tripped arena guard (cheap enough to do unconditionally on a heal);
    counts the regions and guards whose bytes actually differed. *)

(** {1 Shadow-replay sentinel} *)

val sentinel_replay :
  config ->
  array_id:int ->
  sym:int ->
  shadow:Exec.t ->
  live:Exec.t ->
  pre:int array array ->
  chunk:string ->
  start:int ->
  len:int ->
  live_digest:int ->
  unit
(** Restore [shadow] (a fresh clone of [live]) from the {!Exec.snapshot}
    [pre] taken at the window start, replay [chunk.[start .. start+len-1]]
    through the reference kernel, and compare each engine pair's
    semantic state — plus the per-symbol state digests: [live_digest] is
    {!Engine.state_digest} folded over every engine after every symbol
    of the live window, and a replay digest that disagrees is a
    violation even when the end states match, which catches transient
    corruption (a flipped bounded counter expires in a few symbols,
    wiping its state trace — but the intermediate states it perturbed
    already fed match events and activity statistics into the report).
    [sym] is the absolute input symbol of the window end.  Counts the
    check; on divergence counts the trip, records the detection point
    and raises [Sim_error.Error (Integrity_violation _)]. *)
