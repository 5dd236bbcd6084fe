(** Chunked input delivery — bounded-memory replacement for whole-string
    inputs.

    RAP's target workloads are effectively unbounded streams (network
    traffic, log scans); a stream delivers the input in fixed-size
    chunks so the simulator's memory is O(chunk), not O(input).  A
    stream is single-pass and stateful: {!next} hands out consecutive
    chunks until exhaustion.  File- and string-backed streams are
    seekable, which is what checkpoint resume needs; stdin is not. *)

type t

val default_chunk : int
(** 64 KiB. *)

val of_string : ?chunk:int -> string -> t
(** In-memory stream (chunks are substrings; a single-chunk stream hands
    out the original string without copying). *)

val of_file : ?chunk:int -> string -> t
(** Opens the file now; raises [Sim_error.Error (Stream_failed _)] when
    it cannot be opened.  Length is known up front for regular files;
    non-regular paths (fifos, character devices, [/proc] pseudo-files)
    open fine but report no length and are not seekable.  Every file
    streams through the buffered channel reader with the same chunk
    boundaries.  A file truncated while it is read ends the stream early
    instead of faulting. *)

val of_stdin : ?chunk:int -> unit -> t
(** Unseekable, unknown length. *)

val length : t -> int option
(** Total bytes, when knowable without consuming the stream. *)

val pos : t -> int
(** Absolute offset of the next byte {!next} will deliver. *)

val chunk_size : t -> int

val next : t -> string option
(** The next chunk (1 to [chunk] bytes), or [None] at end of input.
    Raises [Sim_error.Error (Stream_failed _)] on a read error. *)

val seek : t -> int -> unit
(** Position the stream at an absolute offset (resume).  Raises
    [Sim_error.Error (Stream_failed _)] when the source is not seekable
    (stdin) or the offset is out of range. *)

val read_all : ?max_bytes:int -> t -> string
(** Drain the remaining stream into one string — only for consumers
    whose semantics genuinely need the whole input (e.g. the fault
    campaign's software cross-check).  Refuses to materialize more than
    [max_bytes] (default 1 GiB), raising
    [Sim_error.Error (Input_too_large _)] — before buffering anything
    when the remaining length is known, else as soon as the cap is
    crossed while draining bounded chunks. *)

val close : t -> unit
(** Release the underlying channel; harmless on string streams and after
    exhaustion. *)
