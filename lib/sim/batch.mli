(** Batched multi-stream execution behind [rap batch] — B
    independent input streams against one shared, immutable compiled
    placement.  The match service does not come through here: it runs
    each request alone, in queue order.

    Throughput comes from amortizing the compiled artifact across
    inputs: compilation, mapping and the bit-parallel mask tables are
    paid once for the placement, and so are the array executors: {!run}
    builds them once ({!Runner.build}) and every stream steps its own
    {!Exec.clone_fresh} copies of them.  Streams running side by side
    only read the prepared templates.

    Scheduling: one {!Scheduler.parallel_for} task per stream, and each
    task is a whole {!Runner.run_prepared} over that stream — the one
    driver that steps a stream and folds its events into cycles, reports
    and energy.  The driver's own per-array [parallel_for] runs inline
    inside a task, so batched streams run side by side, while a stream
    that runs alone still spreads its arrays over [jobs] domains.

    {b Correctness bar}: each stream's report is bit-identical to
    running that stream alone through {!Runner.run} — it is the same
    driver on the same event stream.  Schedules change wall-clock only.

    The aggregate models concurrent stream contexts: they advance side
    by side, so aggregate cycles are the {e maximum} over streams (a
    sequential 8-run baseline pays the {e sum}), and aggregate
    throughput is total chars over that bottleneck stream. *)

type source

val of_string : ?chunk:int -> name:string -> string -> source
val of_file : ?chunk:int -> name:string -> string -> source
(** The file is opened once, when its stream's task starts. *)

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
  Arch.t ->
  params:Program.params ->
  Mapper.placement ->
  sources:source array ->
  t
(** Run every source to exhaustion on one prepared copy of the
    placement: one {!Exec.build} per array per call, one clone per
    stream.  [jobs] bounds the worker domains (default 1).  Raises
    [Invalid_argument] on an empty source array; stream errors
    ([Sim_error.Error]) propagate. *)

val pp_aggregate : Format.formatter -> aggregate -> unit
