(** Blocking client helpers over the {!Wire} protocol — everything
    [rap client] and the CI smoke tests need to talk to a daemon. *)

type outcome =
  | Done of { id : int; degraded : int; recovered : bool; text : string }
      (** Accepted and executed; [text] is byte-identical to
          [rap simulate] on the same input.  [recovered] marks a report
          that went through a recovery path (spool replay or integrity
          heal) — see {!Wire.reply}. *)
  | Failed of { id : int; error : Sim_error.t }
      (** Accepted but execution failed terminally. *)
  | Shed of Wire.reply
      (** Typed rejection at admission: [Overloaded], [Quarantined],
          [Rejected] or [Shutting_down]. *)

val request :
  ?class_:Wire.class_ ->
  ?deadline_s:float ->
  Unix.file_descr ->
  name:string ->
  input:string ->
  outcome
(** Stream one request (Open, 64 KiB Chunks, Finish) and wait for its
    terminal reply.  [class_] defaults to [Bulk].
    Raises [Sim_error.Error (Stream_failed _)] if the server drops the
    connection or replies out of protocol. *)

val stats : Unix.file_descr -> string
(** The daemon's stats JSON ({!Admission.stats_json}). *)

val ping : Unix.file_descr -> bool

val shutdown : Unix.file_descr -> unit
(** Ask the daemon to drain and exit (fire-and-forget past the ack). *)

val with_connection : ?wait_s:float -> string -> (Unix.file_descr -> 'a) -> 'a
(** Connect to the daemon's socket, run, and close the connection — also
    on exceptions.  [wait_s] retries the connect for that long while the
    socket does not exist or refuses — covers the daemon still starting
    up.  Raises [Sim_error.Error (Stream_failed _)] when it cannot
    connect. *)
