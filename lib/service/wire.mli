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

(** {1 Pure codecs} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

val add_frame : Buffer.t -> string -> unit
(** Append one frame — the payload's 4-byte little-endian length, then
    the payload — to the buffer.  Every frame either side writes is
    built here. *)

(** {1 Blocking transport (client side)} *)

val send_request : Unix.file_descr -> request -> unit
(** Raises [Sim_error.Error (Stream_failed _)] on write errors. *)

val recv_reply : Unix.file_descr -> reply option
(** The next reply; [None] on clean EOF at a frame boundary.  A frame
    may be 64 MiB (the default admission [max_input]) plus
    {!frame_slop}.  Raises [Sim_error.Error (Stream_failed _)] on
    mid-frame EOF, an oversized declared length, read errors, or an
    undecodable reply. *)

(** {1 Incremental reader (server side)}

    The daemon's sockets are non-blocking; bytes arrive in arbitrary
    slices.  A reader buffers fed bytes and hands back complete frame
    payloads as they materialise. *)

type reader

val create_reader : ?max_frame:int -> unit -> reader
(** [max_frame] defaults to the limit of {!recv_reply}. *)

val reader_feed : reader -> bytes -> int -> unit
(** Append the first [n] bytes of the buffer.  The reader's buffer holds
    only bytes not yet handed back: when the new bytes do not fit behind
    them, the unconsumed bytes move to the front, and the buffer grows
    only when they and the new bytes do not fit in it at all.  Its size
    therefore follows the largest frame and feed, not the number of
    bytes a connection has streamed. *)

val reader_next : reader -> (string option, string) result
(** [Ok (Some payload)] for each complete frame, [Ok None] when more
    bytes are needed, [Error detail] on an oversized declared length
    (the connection should be dropped — resynchronisation is
    impossible). *)
