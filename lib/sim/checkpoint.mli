(** Crash-consistent run snapshots.

    A checkpoint captures, at a chunk barrier where every array has
    processed exactly [symbols] input bytes, the whole restorable run
    state: one {!array_state} per array.  Restoring it into a freshly
    built placement and continuing from [symbols] reproduces the
    uninterrupted run bit for bit.  The runner captures the same record
    at every chunk start for its in-memory rollbacks.

    Crash consistency on disk: the state file is written to a temp name
    and [rename]d into place, so a crash mid-write leaves the previous
    checkpoint intact; the payload carries a versioned magic header and
    a CRC-32, so torn or bit-rotted files are detected at load instead
    of silently resuming from garbage.  A human-readable append-only
    journal records every checkpoint and resume.

    {b Format, version 3.}  The {!Artifact} envelope (magic [RAPCKPT])
    around a {!Codec} payload: the fingerprint, [symbols], the degraded
    list as {!Sim_error.to_wire} strings, then per array its cycles,
    reports, energy by category, mode energy and its length-prefixed
    word rows: per engine the words of its run-state arena
    ({!Engine.snapshot}), then one row of energy counters
    ({!Cost.save}).  Those words are the arenas' and the counters'
    layout, so a change to either bumps the version; {!load} refuses
    other versions with a typed error that names both.  Version 3 added
    the counters row (version 2 restored energy from its floats, version
    1 stored boxed per-vector state). *)

type array_state = {
  cs_cycles : int;
  cs_reports : int;
  cs_energy_pj : float array;
      (** Per {!Energy.all_categories}, in order: the counters priced at
          capture, for a reader of the checkpoint.  A restore reads the
          counters, not these. *)
  cs_mode_pj : float array;  (** Per {!Cost} mode index, priced likewise. *)
  cs_engines : int array array;
      (** Per engine, {!Engine.snapshot}; then, as the last row, the
          array's {!Cost.save} counters. *)
}

type t = {
  ck_fingerprint : string;
      (** Placement digest ({!Runner.fingerprint}); a checkpoint only
          restores into the identical placement. *)
  ck_symbols : int;  (** Input bytes fully processed by every array. *)
  ck_degraded : Sim_error.t list;
      (** Arrays quarantined before the snapshot — degradation survives
          a resume. *)
  ck_arrays : array_state array;
}

type config = {
  dir : string;  (** Checkpoint directory (created on first save). *)
  every : int;  (** Snapshot at the first chunk barrier after this many symbols. *)
}

val default_every : int
(** 1 Mi symbols. *)

val state_path : dir:string -> string
val journal_path : dir:string -> string

val save : dir:string -> t -> unit
(** Write-temp + rename; creates [dir] when missing.  Raises
    [Sim_error.Error (Stream_failed _)] on filesystem errors. *)

val load : dir:string -> (t option, Sim_error.t) result
(** [Ok None] when no checkpoint exists yet; [Error (Checkpoint_corrupt _)]
    on bad magic, truncation, version or CRC mismatch.  Version-1 and
    version-2 checkpoints are refused by version. *)

val journal : dir:string -> string -> unit
(** Append one timestamped line to the run journal (best-effort: journal
    failures never abort a run). *)

(** {1 Request spool}

    The match daemon's in-flight session journal: every accepted request
    is persisted here {e before} execution starts and removed only when
    its reply reaches the transport, so a [kill -9] at any point in
    between leaves the request replayable.  On restart the daemon lists
    the spool, re-executes every entry against the same placement, and
    writes each report next to its entry — bit-identical to what the
    live run would have produced, because execution is deterministic in
    (placement, input).

    Files use the shared {!Artifact} envelope (magic [RAPSPOOL],
    CRC-32, temp-write + rename), so torn entries are detected, never
    replayed as garbage. *)
module Spool : sig
  type entry = {
    sp_id : int;
    sp_name : string;  (** Client-chosen stream name. *)
    sp_class : string;  (** Stream class label ([interactive] / [bulk]). *)
    sp_deadline_s : float option;
    sp_input : string;
  }

  val path : dir:string -> id:int -> string
  val report_path : dir:string -> id:int -> string
  (** Where recovery writes the replayed report for entry [id]. *)

  val save : dir:string -> entry -> unit
  (** Crash-consistent write (creates [dir] when missing); raises
      [Sim_error.Error (Stream_failed _)] on filesystem errors. *)

  val load : dir:string -> id:int -> (entry option, Sim_error.t) result
  val remove : dir:string -> id:int -> unit

  val list : dir:string -> entry list * Sim_error.t list
  (** All parseable entries ascending by id, plus one
      [Checkpoint_corrupt] per damaged file — corrupt entries are
      surfaced, never silently dropped. *)
end
