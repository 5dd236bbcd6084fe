(** Framed, CRC-guarded binary artifacts.

    The common on-disk envelope shared by every persistent artifact in
    the stack (run checkpoints, the compiled-placement cache), all
    integers little-endian:

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

val crc32 : string -> int
(** CRC-32, reflected, polynomial [0xEDB88320] (zlib/POSIX cksum). *)

val frame : magic:string -> version:int -> string -> string
(** Envelope a payload: header followed by the payload bytes. *)

val unframe : magic:string -> version:int -> string -> (string, string) result
(** Check and strip the envelope; [Error detail] on truncation, magic,
    version or CRC mismatch.  A version mismatch names both the file's
    version and [version]. *)

val fsync_dir : string -> unit
(** Fsync a directory fd so a just-renamed entry survives a power cut —
    rename gives atomicity, only the directory fsync gives durability.
    Best-effort: filesystems that reject directory fsync are ignored. *)

val write : path:string -> string -> unit
(** Durable atomic raw write (no envelope): write-temp + fsync + rename
    + {!fsync_dir}.  For consumers with their own format — e.g. JSON
    metrics files — that still want crash-safe replacement. *)

val save : path:string -> magic:string -> version:int -> string -> unit
(** [frame] then write-temp + fsync + rename + {!fsync_dir}.  Raises
    [Sys_error] on filesystem failure (the containing directory must
    exist). *)

val load : path:string -> magic:string -> version:int -> (string option, string) result
(** [Ok None] when [path] does not exist; otherwise read and [unframe].
    Filesystem read failures surface as [Error ("unreadable: ...")]. *)
