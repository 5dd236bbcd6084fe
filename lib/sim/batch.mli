(** Batched multi-stream execution — B independent input streams against
    one shared, immutable compiled placement.

    Serving-scale throughput comes from amortizing the compiled artifact
    across inputs: every stream here reuses the template {!Exec.t} per
    array through {!Exec.clone_fresh} (compilation, mapping and the
    bit-parallel mask tables are paid once — or never, with the
    placement cache).

    Scheduling: one {!Scheduler.parallel_for} task per (stream, array),
    in stream-major order, so jobs stay saturated even when stream
    lengths are skewed — a long stream's remaining tasks share the
    domains with everyone else's instead of serializing behind one
    [parallel_for] per stream.  Each task steps its clone with
    {!Exec.step}, symbol by symbol.

    {b Correctness bar}: each stream's report is bit-identical to
    running that stream alone through {!Runner.run} at [jobs 1] — same
    event stream per (stream, array), same energy-accumulation order,
    same report assembly ({!Runner.assemble_report}).  Schedules change
    wall-clock only.

    The aggregate models the serving configuration the layer implements:
    per-stream contexts advance concurrently, so aggregate cycles are
    the {e maximum} over streams (a sequential 8-run baseline pays the
    {e sum}), and aggregate throughput is total chars over that
    bottleneck stream. *)

type source

val of_string : ?chunk:int -> name:string -> string -> source
val of_file : ?chunk:int -> name:string -> string -> source
(** The file is opened per (stream × array) task, at task start. *)

val name : source -> string

type stream_report = { bs_name : string; bs_report : Runner.report }

type aggregate = {
  agg_streams : int;
  agg_chars : int;  (** Sum over streams. *)
  agg_cycles : int;  (** Max over streams — concurrent stream contexts. *)
  agg_reports : int;
  agg_throughput_gchs : float;
}

type t = { streams : stream_report array; aggregate : aggregate }

val run :
  ?jobs:int ->
  ?done_stamps:float array ->
  Arch.t ->
  params:Program.params ->
  Mapper.placement ->
  sources:source array ->
  t
(** Run every source to exhaustion.  [jobs] bounds the worker domains
    (default 1).
    [done_stamps] (length >= streams) receives, per stream, the
    wall-clock instant its own last (stream × array) task retired — the
    match service's per-request finish timestamp, so skewed streams in
    one batch finish at different times and a short request is not
    charged a long one's latency.
    Raises [Invalid_argument] on an empty source array or a short
    [done_stamps]; stream errors ([Sim_error.Error]) propagate. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
