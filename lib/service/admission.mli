(** Admission control, execution and SLO accounting of the match
    service — everything the daemon does except the sockets, so the
    bench harness and the tests can drive overload scenarios in-process.

    {b State machine per request}:
    {v
      submit ──► (shed: Queue_full / Quarantined / Too_large)   typed, immediate
         │
         ▼
      queued ──► run_pending ──► executing ──► outcome {report | error}
         │                          │
         │  (deadline spent         │  (every attempt failed:
         │   while queued)          │   request-level retry w/ backoff,
         ▼                          ▼   then the stream's fault counter)
      Deadline_expired         Sim_error / degraded report
    v}

    {b Load shedding} is explicit and typed: a full queue rejects at
    submit time with queue depth and capacity — the daemon turns that
    into an [Overloaded] reply — instead of queueing unboundedly and
    letting every request's latency grow without limit.  Shed requests
    never touch execution state: accepted streams' reports are
    bit-identical to solo [rap simulate] runs whether or not other
    requests were shed around them.

    {b Deadlines} are propagated, not re-interpreted: the time a
    request spent queued is subtracted from its deadline and the
    remainder becomes {!Scheduler.policy}'s whole supervision budget
    inside {!Runner.run_prepared} — retries and backoff sleeps shrink
    into what remains of it (and the request-level retry layer is
    skipped entirely: one deadline, one retry budget), so a request
    that times out degrades near its deadline exactly like PR 4's
    supervised runs (quarantined arrays, partial report, [degraded]
    taxonomy).  A deadline wholly spent in the queue yields a typed
    {!Sim_error.Deadline_expired} without executing at all.

    {b Quarantine} is per stream name: [quarantine_after] consecutive
    faulted requests (a failed execution or a degraded report) and the
    name is refused at admission until a clean recovery path lifts it.
    Queue overload does not count — it is the server's fault, not the
    stream's.

    {b Crash recovery}: accepted requests are spooled through
    {!Checkpoint.Spool} before execution; every spooled outcome's
    report is persisted to {!Checkpoint.Spool.report_path} {e before}
    its spool entry is removed, so a crash at any point between
    admission and the reply reaching the transport leaves either the
    request (replayed on restart) or its durable result on disk.  When
    the report cannot be written, the outcome is still returned, the
    spool entry stays and the journal records [report-write-failed], so
    the next {!recover} replays the request.
    {!recover} replays whatever a killed daemon left behind,
    bit-identical to what the live reply would have carried. *)

type config = {
  capacity : int;  (** Admission queue bound; beyond it, requests shed. *)
  max_input : int;  (** Per-request input byte cap. *)
  group : int;
      (** Requests the daemon executes between select rounds
          ({!Daemon.run_round}), replying to each as it is booked. *)
  jobs : int;  (** Worker domains for one request's arrays. *)
  retries : int;  (** Request-level re-execution attempts. *)
  backoff_s : float;  (** Base request-retry backoff (exponential). *)
  quarantine_after : int;  (** Consecutive faults before a name is refused. *)
  state_dir : string option;  (** Spool + journal directory; [None] = no recovery. *)
  integrity : Integrity.config option;
      (** Arm online integrity checking on every executed request.  The
          tables are sealed once, by {!create}; each request keeps its
          own sentinel window at its symbol 0 and its sweep at its first
          chunk end, checked against those seals, so tables corrupted
          between two requests trip the second one and are repaired
          from the copies taken at {!create}.  A run the layer rolled
          back and healed carries [o_recovered] so the client sees that
          recovery happened — never a silently-corrupt report. *)
}

val default_config : config
(** capacity 64, max_input 64 MiB, group 4, jobs 1,
    2 retries, 50 ms backoff, quarantine after 3 faults, no state dir,
    integrity off. *)

type reject =
  | Queue_full of { depth : int; capacity : int; retry_after_s : float }
  | Quarantined_name of { name : string; faults : int }
  | Too_large of { bytes : int; limit : int }

val reject_message : reject -> string

type outcome = {
  o_id : int;
  o_name : string;
  o_class : Wire.class_;
  o_report : Runner.report option;  (** [None] when execution failed outright. *)
  o_text : string;  (** {!Runner.render_report} of the report; [""] on failure. *)
  o_error : Sim_error.t option;  (** Terminal failure (after retries). *)
  o_recovered : bool;
      (** Replayed from the spool after a crash, or healed in-flight by
          the integrity layer (rolled back, repaired, re-executed to a
          clean report). *)
  o_queued_s : float;  (** enqueue -> execution start. *)
  o_latency_s : float;  (** enqueue -> finish — the SLO latency. *)
}

type t

val create : config -> Arch.t -> params:Program.params -> Mapper.placement -> t
(** Prepare the placement once ({!Runner.build}): every array's
    executors, sealed when [config.integrity] is set.  Every request,
    request-level retry and spool replay then runs on fresh clones of
    them ({!Runner.run_prepared}), so a request pays for its run state,
    not for the placement's set-up.  [params] is not read. *)

val submit :
  ?deadline_s:float ->
  ?enqueued_at:float ->
  t ->
  name:string ->
  class_:Wire.class_ ->
  input:string ->
  (int, reject) result
(** Admit one request (the id on success).  [enqueued_at] defaults to
    now; the daemon passes the moment the last input byte arrived, the
    bench harness passes modelled arrival instants.  On acceptance the
    request is spooled (when [state_dir] is set) before this returns —
    the crash-recovery guarantee starts at admission. *)

val pending : t -> int

val run_pending : ?max:int -> t -> outcome list
(** Execute up to [max] queued requests (default: all) one at a time,
    oldest first, and return their outcomes in that order, which is
    also completion order.  Each request is one {!Runner.run_prepared}
    on its own start and finish stamps, so its [o_queued_s] counts the
    requests that ran before it.  A deadline-carrying request runs
    supervised, with the remaining deadline as the whole supervision
    budget (a single pass — no request-level retry on top); a
    deadline-free one runs under the request-level retries.  Never
    raises for per-request failures — they surface as [o_error]. *)

val recover : t -> outcome list
(** Replay every spooled request of a previous daemon incarnation,
    writing each report to {!Checkpoint.Spool.report_path} and removing
    the spool entry.  Call before accepting live traffic. *)

val shed_count : t -> int
val completed_count : t -> int

val quarantined : t -> (string * int) list
(** Names currently refused, with their fault counts. *)

val stats_json : t -> string
(** Queue depth, shed/completed/failed/degraded counters, the
    spool-replay counter (spooled requests of earlier incarnations
    replayed by {!recover}), the quarantine-reset counter (fault
    counters a clean run took back to zero), quarantine list, the
    integrity counters (or [null] when unarmed), and per-class +
    queue-wait latency histograms ({!Sink.Latency.to_json}) — the
    daemon's [Stats] reply.  Keys are only ever added, so clients that
    pick fields by name stay compatible across versions. *)
