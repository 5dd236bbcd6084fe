(** The always-on match daemon: a single-threaded, select-based event
    loop over a Unix domain socket, multiplexing concurrent client
    streams onto one {!Admission} instance.

    Life of a connection:
    - frames arrive in arbitrary slices into a per-connection
      {!Wire.reader}; complete frames are handled as they materialise;
    - an over-limit input is refused {e while arriving} (the buffered
      prefix plus the incoming chunk crosses [max_input]) — the client
      gets a typed [Rejected] without the daemon ever holding the full
      payload;
    - replies append to a per-connection output buffer flushed as the
      socket accepts bytes.  A client that stops reading while more than
      [write_budget] bytes are queued for it is dropped — slow-client
      backpressure protects the daemon's memory, never the other
      clients' latency;
    - execution happens between select rounds, [group] requests at a
      time, so the loop gets back to accepting (and shedding) after
      every [group] requests.  Each request's reply is queued, and a
      non-blocking write of it tried, as soon as the request is booked,
      before the next request of the round runs.

    Termination: a [Shutdown] frame or SIGTERM stops admission, drains
    the queue, flushes replies and exits; [max_requests = Some n] exits
    after [n] completed requests (test harnesses); [Some 0] replays the
    crash-recovery spool and exits without serving — the restart half of
    the kill -9 smoke test. *)

type config = {
  socket_path : string;
  admission : Admission.config;
  write_budget : int;  (** Max buffered reply bytes per connection. *)
  max_requests : int option;
      (** Exit after this many completed requests; [Some 0] = recover
          the spool and exit.  [None] = serve forever. *)
}

val run_round : Admission.t -> group:int -> (Admission.outcome -> unit) -> unit
(** One execution round: up to [group] queued requests, oldest first,
    one {!Admission.run_pending} call each.  [reply] gets each outcome
    as soon as it is booked, while the requests after it are still
    queued, so a reply never waits on the requests behind it. *)

val serve : config -> Arch.t -> params:Program.params -> Mapper.placement -> unit
(** Run the daemon until a termination condition.  Binds
    [config.socket_path] (replacing a stale socket file), ignores
    SIGPIPE, treats SIGTERM as graceful shutdown.  Raises
    [Sim_error.Error] for fatal setup failures (bind/listen). *)
