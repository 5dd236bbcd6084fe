(** Typed execution-layer failure taxonomy.

    PR 1 gave the compiler a structured {!Compile_error.t}; this is the
    same philosophy at the execution layer.  Long-running simulations can
    fail in ways that must not poison the whole run: a worker array can
    crash or hang (supervised by {!Scheduler.supervised_for}), a
    checkpoint file can be corrupt or belong to a different placement,
    and a streaming input can go away under the process.  Every such
    failure is a value of this type, so callers (the runner, the CLI, CI
    gates) can report and react instead of matching on exception
    strings. *)

type t =
  | Array_crashed of { array_id : int; attempts : int; detail : string }
      (** A simulation work item raised on every attempt; [attempts]
          counts them (1 + retries). *)
  | Array_timeout of { array_id : int; attempts : int; deadline_s : float }
      (** The per-array deadline expired on every attempt. *)
  | Checkpoint_corrupt of { path : string; detail : string }
      (** Bad magic, truncated payload, or CRC mismatch. *)
  | Checkpoint_mismatch of { detail : string }
      (** A structurally valid checkpoint for a different placement,
          architecture, or rule set. *)
  | Stream_failed of { detail : string }
      (** The input stream cannot be opened, read, or (for resume)
          seeked. *)
  | Deadline_expired of { waited_s : float; deadline_s : float }
      (** The request's whole deadline was already spent while it sat in
          the service admission queue — it never started executing.  A
          symptom of overload, not of the stream itself (contrast with
          {!Array_timeout}, which quarantines). *)
  | Input_too_large of { bytes : int; limit : int }
      (** A whole-input consumer ({!Input_stream.read_all}) refused to
          materialize more than [limit] bytes in memory — stream the
          input in chunks instead. *)
  | Integrity_violation of { array_id : int; region : string; detail : string }
      (** A runtime integrity check failed on this array: a checksum seal over
          an immutable mask table stopped matching ([region] names the
          sealed region), an arena guard word was overwritten, or the
          shadow-stepping sentinel diverged from the live kernel.  Raised
          by {!Integrity} checks inside a supervised chunk so the runner
          can roll back, repair and re-execute; an array that keeps
          tripping is quarantined with this as its reason. *)

exception Error of t
(** The carrier used by streaming/checkpoint code paths; supervised
    scheduling converts worker exceptions into values instead. *)

val label : t -> string
(** Short stable tag ([array-crashed], [checkpoint-corrupt], ...) for
    logs and journals. *)

val array_id : t -> int option
(** The array a per-array failure refers to; [None] for run-level
    failures. *)

val message : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Wire codec}

    The match service ships failures to clients as values, not rendered
    strings, so the client can react in a typed way (retry on timeout,
    give up on corruption).  The encoding is self-contained binary in
    the {!Codec} vocabulary — a tag byte, then the fields — and
    checkpoints store their degraded list in it too.  Integer fields
    ([array_id], [attempts], [bytes], [limit]) travel as u32, so
    [of_wire (to_wire e) = Ok e] for every [e] whose integer fields lie
    in [\[0, 2{^32})], including float fields with no finite decimal
    representation. *)

val to_wire : t -> string
(** Raises [Invalid_argument] when an integer field lies outside
    [\[0, 2{^32})]. *)

val of_wire : string -> (t, string) result
(** [Error detail] on truncation, an unknown tag, or trailing bytes —
    never an exception, since the bytes arrive from the network. *)
