(** Framed, CRC-guarded binary artifacts.

    The common on-disk envelope of the stack's persistent artifacts (run
    checkpoints and the service's spool entries), all integers
    little-endian:

    {v
      magic      consumer-chosen tag, fixed length
      version    1 byte
      crc32      4 bytes, over the payload only
      length     8 bytes, payload byte count
      payload    length bytes
    v}

    Writes go to a temp name and are [rename]d into place, so a crash
    mid-write leaves the previous artifact intact; the version byte and
    CRC-32 make torn, bit-rotted or stale-format files detectable at
    load instead of being deserialized as garbage.  Consumers own the
    payload codec and the error policy: this module reports problems as
    [Sys_error] (filesystem) or [Error detail] strings (framing). *)

val write : path:string -> string -> unit
(** Durable atomic raw write (no envelope): write-temp + fsync + rename
    + fsync of the directory, so the renamed entry survives a power cut
    (best-effort: a filesystem that rejects directory fsync keeps only
    the rename's atomicity).  For consumers with their own format —
    e.g. JSON metrics files — that still want crash-safe replacement.
    Raises [Sys_error] when the write or the rename fails, after
    removing the temp file. *)

val save : path:string -> magic:string -> version:int -> string -> unit
(** Envelope the payload, then write it like {!write}.  Raises
    [Sys_error] on filesystem failure (the containing directory must
    exist). *)

val save_pieces : path:string -> magic:string -> version:int -> string list -> unit
(** {!save} of the concatenation of the pieces, without joining them:
    the header, then each piece in turn, with the CRC taken over the
    pieces, so a large piece (a request's input) reaches the file
    without being copied.  The same bytes on disk as {!save}. *)

val load :
  path:string -> magic:string -> version:int -> ((string * int) option, string) result
(** [Ok None] when [path] does not exist; otherwise read the file and
    check its envelope: [Ok (Some (bytes, at))] is the file as read and
    the offset of its payload, which runs to the end — the payload is
    checked in place, never copied out.  [Error detail] on truncation,
    magic, version or CRC mismatch (a version mismatch names both the
    file's version and [version]).  Filesystem read failures surface as
    [Error ("unreadable: ...")]. *)
