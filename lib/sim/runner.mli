(** Top-level simulation driver.

    [compile_for] compiles a regex set the way each architecture would
    consume it (RAP: decision graph; CAMA/CA: everything as NFA; BVAP:
    NBVA where profitable, NFA otherwise), [run] drives a placement through
    an input and produces the measurements the paper's tables report. *)

type array_detail = {
  a_cycles : int;  (** Cycles this array took for the whole input. *)
  a_tiles : int;  (** Tiles allocated in this array. *)
  a_has_nbva : bool;
}

type report = {
  arch : Arch.kind;
  chars : int;
  cycles : int;  (** Slowest array (arrays are decoupled by buffering). *)
  arrays_detail : array_detail array;
  match_reports : int;  (** Reporting-STE activations. *)
  energy : Energy.t;
  area_mm2 : float;
  throughput_gchs : float;
  power_w : float;  (** Average power = energy / runtime. *)
  num_arrays : int;
  num_tiles : int;
  num_states : int;
  mode_energy_pj : (Engine.mode * float) list;
  mode_area_um2 : (Engine.mode * float) list;
  mode_states : (Engine.mode * int) list;
  mapper_stats : Mapper.stats;
  degraded : Sim_error.t list;
      (** Arrays quarantined by the supervisor, in quarantine order —
          empty on a clean run.  A degraded report under-counts matches:
          callers wanting a hard failure should test this (the CLI's
          [--strict]). *)
}

val energy_efficiency_gchs_per_w : report -> float
(** Throughput / power — the paper's headline metric. *)

val compute_density_gchs_per_mm2 : report -> float

val compile_for :
  Arch.t ->
  params:Program.params ->
  (string * Ast.t) list ->
  Program.compiled list * Compile_error.t list
(** [(compiled, errors)]: units the architecture accepts and regexes it
    rejects, with structured reasons.  CAMA/CA force NFA mode (CA with
    256-STE tiles); BVAP compiles repetitions to its BVM-backed NBVA and
    the rest to NFA. *)

val place :
  Arch.t -> params:Program.params -> Program.compiled list -> Mapper.placement
(** {!place_result} on a pristine chip, for callers whose units are known
    to fit.  Raises [Invalid_argument] naming the first unit it would
    drop; {!prepare} reports such units instead. *)

val place_result :
  ?defects:Defect.t ->
  Arch.t ->
  params:Program.params ->
  Program.compiled list ->
  Mapper.placement * Compile_error.t list * Mapper.defect_stats
(** Defect-aware {!place}: see {!Mapper.map_units_result}. *)

val prepare :
  Arch.t ->
  params:Program.params ->
  (string * Ast.t) list ->
  Mapper.placement * Compile_error.t list
(** The set-up of a user rule set: {!compile_for}, then {!place_result}
    on a pristine chip ([Defect.none]).  A rule it cannot run is reported,
    not raised: the errors are every compile error followed by every
    placement drop (a rule that alone exceeds one array is [Oversize]),
    and the placement holds the rules that remain, possibly none.  [rap
    simulate], [batch], [serve] and [chaos] and [Rap.simulate] set up
    through it. *)

val fingerprint : Mapper.placement -> string
(** Digest of everything the run state depends on: unit sources, their
    compiled sizes and the exact tile floorplan.  A checkpoint written
    under one fingerprint refuses to restore under another. *)

(** {1 Accounting building blocks}

    The pieces {!run_stream} accounts a stream's events with, exported
    for outside-in replicas of the driver (the repository benchmark's
    per-layer trace), which must reproduce its accounting bit for bit:
    the same energy counting and pricing ({!Cost.counter}), the same
    report assembly.  {!Batch} needs neither: it runs each stream
    through {!run_stream} itself. *)

val energy_sink : Arch.t -> num_arrays:int -> Sink.spec * Energy.t array * float array array
(** The built-in energy accounting as a sink spec plus its per-array
    ledgers and per-array mode-energy slots (merged in array order by
    {!assemble_report}): each instance counts its array's events into a
    {!Cost.counter} and prices the counts into its slots at [on_close],
    exactly as {!run_stream} prices its own counters at end of input. *)

val assemble_report :
  Arch.t ->
  Mapper.placement ->
  chars:int ->
  cycles_slots:int array ->
  reports_slots:int array ->
  ledgers:Energy.t array ->
  mode_slots:float array array ->
  execs:Exec.t array ->
  degraded:Sim_error.t list ->
  report
(** Fold the per-array accumulator slots into a {!report} — exactly the
    computation {!run_stream} performs at end of input. *)

val run_stream :
  ?jobs:int ->
  ?sinks:Sink.spec list ->
  ?policy:Scheduler.policy ->
  ?integrity:Integrity.config ->
  ?checkpoint:Checkpoint.config ->
  ?resume:bool ->
  Arch.t ->
  params:Program.params ->
  Mapper.placement ->
  stream:Input_stream.t ->
  report
(** Chunked, crash-safe generalisation of {!run}: the input arrives
    through an {!Input_stream.t} one chunk at a time, so memory stays
    O(chunk); every array processes chunk [k] before any array starts
    chunk [k+1] (a {e chunk barrier}), and within a chunk arrays are
    scheduled exactly like {!run}.

    [policy] turns on supervision: each array's chunk attempt runs under
    a cooperative per-attempt deadline (checked every 256 symbols) and
    is retried with exponential backoff after a crash or timeout; an
    array that exhausts its retries is rolled back to the chunk start,
    {e quarantined} for the rest of the run, and surfaced in
    [report.degraded] — the run still completes.  The built-in
    accounting (cycles, reports, the energy counters) is rolled back
    exactly on retry, from buffers rewritten at every chunk start;
    user [sinks] observe at-least-once event delivery under supervision,
    so side-effecting sinks should be idempotent or left unsupervised.

    [integrity] (default off — and then strictly zero-overhead) arms the
    online integrity layer ({!Integrity}): every array's immutable
    compiled tables are checksum-sealed at run start (or, by
    {!run_prepared}, when the placement was prepared), re-verified together
    with the arena guard words on the sweep cadence and before every
    checkpoint write, and a sampled window of each array's execution is
    shadow-replayed through the reference kernel.  A detected violation
    rolls the array back to the chunk start, repairs the tables from
    pristine copies, and re-executes the chunk (counted in
    [stats.heals]); an array still tripping after two heals in a chunk is
    quarantined with a typed [Integrity_violation] in [report.degraded]
    — detected corruption NEVER silently reaches the report.  A
    checkpoint that fails verification is skipped (journalled), leaving
    the previous clean checkpoint as the recovery point.  Do not combine
    with fault-injection sinks unless the injections are meant to be
    detected and healed (that is exactly what the chaos harness does).

    [checkpoint] saves a crash-consistent {!Checkpoint.t} at the first
    chunk barrier after every [every] symbols, plus one at end of input.
    With [resume] (and a checkpoint present) the run restores the saved
    accumulators, energy counters and engine state, seeks the stream —
    which must be seekable — to the saved offset, and continues; the
    final report is bit-identical to the uninterrupted run's, at any
    [jobs].  Energy is counted as integers and priced once, in
    [finish], so no float depends on where a run was cut.  Raises
    [Sim_error.Error] on a corrupt checkpoint, a fingerprint mismatch,
    or an unseekable resume source.

    Each call builds every array's executors ({!Exec.build}) and, when
    armed, seals them, then steps what it built: a one-shot run pays
    its placement's set-up once and clones nothing.  A caller that runs
    one placement many times prepares it once instead ({!build}). *)

(** {1 Prepared placements}

    RAP configures its tiles once per rule set and streams every input
    through the configured fabric.  A {!prepared} value is that
    configuration: each array's executors, built once from the
    placement, and, when sealed, the checksum seals of the compiled
    tables they read, with pristine copies taken then.  Every
    {!run_prepared} steps {!Exec.clone_fresh} copies of the templates,
    which share the compiled tables, tile maps and wake table with them
    and nothing mutable, so runs on one value may go side by side on
    different domains; the templates themselves are never stepped.  What
    a run still allocates is its run state: the clones' arenas and event
    records, the sinks, the energy counters and, under a policy or
    integrity, the rollback buffers and one shadow per array.

    A placement comes from {!prepare}; {!build} turns it into a
    [prepared] value.  The service ({!Admission.create}), [rap batch]
    ({!Batch.run}) and [rap chaos] ({!Fault.chaos}) build once per
    placement and run every request, stream or trial on clones. *)

type prepared

val build : ?sealed:bool -> Mapper.placement -> prepared
(** Build every array's executors from the placement and, with [sealed]
    (default [false]), seal their compiled tables ({!Integrity.seal}).
    A sealed value is what armed runs need: the seals live as long as
    the placement, so tables corrupted between two runs trip the next
    run's checks and are repaired from the copies taken here, where a
    seal taken per run would accept them as pristine. *)

val run_prepared :
  ?jobs:int ->
  ?sinks:Sink.spec list ->
  ?policy:Scheduler.policy ->
  ?integrity:Integrity.config ->
  Arch.t ->
  prepared ->
  stream:Input_stream.t ->
  report
(** {!run_stream} (without checkpoints) on fresh clones of the prepared
    executors: the same run loop, the same report, bit for bit.  The
    run's [integrity] config (its cadence and its stats) is its own; the
    seals it checks and repairs from are the prepared value's, and the
    sentinel's shadows clone its templates.  Raises [Invalid_argument]
    when [integrity] is given and the value was built without
    [sealed]. *)

val repair : Integrity.config -> prepared -> unit
(** {!Integrity.repair} of every array's sealed tables from the copies
    taken by {!build}, counted in [cfg]'s stats; a no-op on an unsealed
    value.  [rap chaos] calls it after each trial, so that the next
    trial starts from clean tables even when a trial's own healing gave
    up. *)

val run :
  ?jobs:int ->
  ?sinks:Sink.spec list ->
  ?integrity:Integrity.config ->
  Arch.t ->
  params:Program.params ->
  Mapper.placement ->
  input:string ->
  report
(** One simulation pass: each array's engines step through the input
    exactly once, emitting one {!Exec.array_events} per symbol; the
    energy/timing accounting and every attached sink fold over that
    stream.  [jobs] (default 1) simulates up to that many arrays on
    parallel domains (see {!Scheduler}); results are bit-identical for
    every [jobs] value because per-array partials are merged in array
    order.  Sinks carrying an [on_state] hook (fault injection) should
    be run with [jobs = 1] when their callback shares state across
    arrays — e.g. a common RNG — since arrays run in no particular
    order otherwise. *)

val run_with_stall_traces :
  Arch.t ->
  params:Program.params ->
  Mapper.placement ->
  input:string ->
  report * int array array
(** Like {!run}, additionally returning the per-array per-symbol stall
    trace (extra cycles after each symbol) that {!Bank_sim.run} consumes
    to model the two-level input buffering.  Implemented as {!run} with
    a {!Sink.stall_trace} attached — one pass, not a re-simulation. *)

val pp_report : Format.formatter -> report -> unit

val render_report : report -> string
(** The canonical textual rendering — the report line plus the energy
    breakdown, exactly what [rap simulate] prints.  The CLI, the batch
    [--report-dir] files and the match service's report replies all go
    through this one function, which is what makes served reports
    byte-diffable against solo runs. *)
