(** Online runtime-integrity checking.

    A long-lived simulation or service run can be silently corrupted by
    a soft error in exactly two kinds of memory: the {e immutable}
    compiled tables the kernels read every symbol (the flat NBVA mask
    table, the per-byte [bv_match] bytes, the Shift-And label masks) and
    the {e mutable} packed run state in each engine's arena.  This
    module turns both into detectable, repairable events:

    - {b seals}: a word-wise checksum over every immutable region of an
      array (its engines' tables and its own wake table), computed once
      at run start together with pristine copies; {!check} re-verifies
      the checksums (and the arena guard words) on the runner's sweep
      cadence and before checkpoint writes, and {!repair} blits the
      pristine words back over a corrupted table.  Each word (each
      byte, for byte tables) goes through {!Engine.digest_mix}, a
      bijection of the running sum for a fixed word, so any single-word
      change always trips.
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
  mutable sweeps : int;  (** Checksum/guard sweep passes completed. *)
  mutable sentinel_checks : int;  (** Shadow-replay windows compared. *)
  mutable crc_trips : int;  (** Seal (checksum) mismatches detected. *)
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
  stats : stats;
}

val default_config : unit -> config
(** Fresh stats; sweep every 64 Ki symbols, a 64-symbol sentinel window
    every 64 Ki symbols.  The sentinel replays through the
    (slow) reference kernel, so its window/cadence duty cycle bounds the
    zero-fault overhead; this cadence keeps it well inside 3%. *)

val continuous_config : unit -> config
(** Chaos/soak configuration: sweep every chunk, sentinel windows
    back-to-back ([sentinel_window = sentinel_every]), so every symbol
    of the run is covered by a detector. *)

(** {1 Seals} *)

type seal

val seal : Engine.t array -> seal
(** Checksum every immutable region of one array's engines
    ({!Engine.immutable_regions}) and of the array they belong to
    ({!Engine.array_regions}, taken once), and keep pristine copies for
    {!repair}.  Engine regions are shared by clones, so a seal taken on
    a template covers its whole group. *)

val check : config -> array_id:int -> sym:int -> seal -> Engine.t array -> unit
(** Verify arena guards, then every sealed checksum.  On the first mismatch:
    count the trip, record [sym] as the detection point, and raise
    [Sim_error.Error (Integrity_violation _)] naming the region. *)

val repair : config -> seal -> Engine.t array -> unit
(** Blit every pristine copy back over its live region and re-arm every
    tripped arena guard (cheap enough to do unconditionally on a heal);
    counts the regions and guards whose bytes actually differed.  Every
    engine's record is then {!Engine.invalidate}d, so the next step
    projects from the repaired tables, not from a record projected
    while they were corrupted. *)

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
