(** Framed wire protocol of the match service.

    Transport framing: every message is one {e frame} — a 4-byte
    little-endian payload length followed by the payload; payload byte 0
    is the message tag, the rest the tag's fields in the {!Codec}
    vocabulary that checkpoints and errors share (little-endian
    integers, length-prefixed strings, floats as IEEE-754 bits).  Length
    framing first means a reader never has to understand a message to
    skip it, and a declared length beyond [max_frame] is rejected before
    any allocation — a corrupt or hostile peer cannot make the daemon
    allocate gigabytes.

    A client conversation:
    {v
      -> Open {name; class; deadline?}     declare one request
      -> Chunk ...  (repeatable)           stream the input
      -> Finish                            request admission
      <- Accepted {id}                     queued (or a typed rejection:
                                           Overloaded / Quarantined /
                                           Rejected — the shed path)
      <- Report {id; degraded; recovered; text}   finished (or Failed)
    v}
    [Stats], [Ping] and [Shutdown] are single-frame conversations.

    Decoders are total: wire bytes come from the network, so every
    malformation is an [Error detail], never an exception. *)

type class_ = Interactive | Bulk
(** Stream classes — the SLO buckets the daemon reports latency
    quantiles for.  The class picks only the bucket: every request runs
    alone, in queue order, whatever its class, and a deadline is a
    field of [Open] of its own. *)

val class_name : class_ -> string
val class_of_string : string -> (class_, string) result

type request =
  | Open of { name : string; class_ : class_; deadline_s : float option }
  | Chunk of string
  | Finish
  | Stats
  | Ping
  | Shutdown

type reply =
  | Accepted of { id : int }
  | Overloaded of { depth : int; capacity : int; retry_after_s : float }
      (** Load shed: the admission queue is full.  [retry_after_s] is
          the server's estimate of when capacity frees up. *)
  | Quarantined of { name : string; faults : int }
      (** This stream name faulted [faults] consecutive times and is
          refused until the quarantine is lifted. *)
  | Rejected of { reason : string }
      (** Protocol misuse or an over-limit request (e.g. input larger
          than the server's per-request cap). *)
  | Report of { id : int; degraded : int; recovered : bool; text : string }
      (** [text] is {!Runner.render_report} output — byte-identical to
          what [rap simulate] prints for the same input; [degraded]
          counts quarantined arrays (0 = clean).  [recovered] marks a
          report produced through a recovery path — a spool replay
          after a daemon crash, or an in-flight integrity heal
          (rollback + repair + re-execution); the text itself is
          clean either way, the marker travels out-of-band so served
          reports stay byte-diffable against solo runs. *)
  | Failed of { id : int; error : Sim_error.t }
  | Stats_ok of { json : string }
  | Pong
  | Shutting_down

val frame_slop : int
(** Codec overhead headroom a frame limit must add over a payload
    limit: a [Chunk] at the admission layer's [max_input] encodes to
    [max_input] plus a tag byte and a length prefix, and the frame
    limit must admit it so an over-limit input sheds with the typed
    [Too_large] reply, never a framing error. *)

val default_max_frame : int
(** 64 MiB (the default admission [max_input]) + {!frame_slop}. *)

(** {1 Pure codecs} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

(** {1 Blocking transport (client side)} *)

val write_frame : Unix.file_descr -> string -> unit
(** Raises [Sim_error.Error (Stream_failed _)] on write errors. *)

val read_frame : ?max_frame:int -> Unix.file_descr -> string option
(** One whole frame payload; [None] on clean EOF at a frame boundary.
    Raises [Sim_error.Error (Stream_failed _)] on mid-frame EOF, an
    oversized declared length, or read errors. *)

val send_request : Unix.file_descr -> request -> unit

val recv_reply : ?max_frame:int -> Unix.file_descr -> reply option
(** Raises [Sim_error.Error (Stream_failed _)] when the peer sends an
    undecodable reply. *)

(** {1 Incremental reader (server side)}

    The daemon's sockets are non-blocking; bytes arrive in arbitrary
    slices.  A reader buffers fed bytes and hands back complete frame
    payloads as they materialise. *)

type reader

val create_reader : ?max_frame:int -> unit -> reader

val reader_feed : reader -> bytes -> int -> unit
(** Append the first [n] bytes of the buffer. *)

val reader_next : reader -> (string option, string) result
(** [Ok (Some payload)] for each complete frame, [Ok None] when more
    bytes are needed, [Error detail] on an oversized declared length
    (the connection should be dropped — resynchronisation is
    impossible). *)

val reader_buffered : reader -> int
(** Bytes currently buffered — the admission layer's input-bound check
    consults this so an over-limit stream is cut off while arriving,
    not after being fully buffered. *)
