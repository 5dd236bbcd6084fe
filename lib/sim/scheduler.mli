(** Per-array parallel scheduler (OCaml 5 [Domain]s, stdlib only).

    Arrays are fully independent during simulation — no inter-array
    communication exists in the hardware (§3.3) — so the runner farms one
    array per task.  Indices are pulled dynamically from a shared
    counter; any exception in a worker is re-raised in the caller after
    all domains join, and cancels the dispatch of indices not yet
    started (fail-fast: work already in flight finishes, nothing new is
    pulled).

    Worker domains are spawned once and parked in a persistent pool
    between calls: the earlier spawn-per-call design put a few hundred
    microseconds of domain startup on every dispatch, which made
    [--jobs 4] {e slower} than [--jobs 1] on small chunks.  Effective
    fan-out is additionally clamped to {!available_parallelism} (domains
    beyond the machine's cores only add overhead), and callers that can
    estimate their per-index cost pass [?work_per_index] so tiny
    dispatches skip the pool entirely.  At most one pooled job runs at a
    time; a nested or concurrent [parallel_for] — one issued from inside
    a running job's body, or by another caller while a job runs — runs
    inline sequentially, which is deadlock-free and costs nothing when
    the cores are already occupied.

    Determinism contract: [f i] must confine its writes to slot [i] of
    pre-allocated result arrays; the caller then merges slots in index
    order, making every schedule (including [jobs = 1]) produce
    bit-identical results. *)

val available_parallelism : unit -> int
(** Cores usable by this process: [Domain.recommended_domain_count]
    clamped to [1..8].  The [RAP_SCHED_DOMAINS] environment variable
    (read once, at program start) overrides the probe — tests and CI use
    it to exercise the pool protocol on machines with fewer visible
    cores. *)

val default_jobs : unit -> int
(** Alias for {!available_parallelism}. *)

val seq_work_threshold : int
(** The inline-fallback threshold of {!parallel_for}, in caller work
    units (typically input symbols): below this much estimated total
    work, waking the pool costs more than it saves.  Exported so callers
    can predict whether a dispatch will run inline (a profiler counting
    the domains a call really uses, for one). *)

val parallel_for : ?work_per_index:int -> jobs:int -> int -> (int -> unit) -> unit
(** [parallel_for ~jobs n f] runs [f 0 .. f (n-1)] on
    [min jobs n (available_parallelism ())] domains from the persistent
    pool ([jobs <= 1] degenerates to a plain sequential loop).
    [?work_per_index] estimates the cost of one index in input symbols;
    when [work_per_index * n] falls below an internal threshold the call
    runs inline — dispatch overhead would exceed the work. *)

(** {1 Supervision}

    Long runs must survive a crashing or hung work item: a supervised
    loop retries each failing item with exponential backoff and, when
    the item keeps failing, {e quarantines} it — the failure becomes a
    {!Sim_error.t} value in the result slot instead of an exception, and
    every other item still runs to completion.  This mirrors PR 1's
    graceful-degradation philosophy at the execution layer. *)

type deadline
(** A per-attempt wall-clock budget.  OCaml domains cannot be killed
    preemptively, so deadlines are cooperative: long-running work items
    call {!check_deadline} periodically (the runner does so every 256
    symbols). *)

exception Deadline_exceeded
(** Raised by {!check_deadline}; treated by {!supervised_for} as a
    timeout rather than a crash. *)

val no_deadline : deadline
(** Never expires — for unsupervised call sites sharing a supervised
    code path. *)

val check_deadline : deadline -> unit
(** Raises {!Deadline_exceeded} once the attempt's budget is spent. *)

type policy = {
  deadline_s : float option;
      (** Whole-item wall-clock budget across {e all} attempts and
          backoff sleeps; [None] = unbounded.  Each retry runs under
          what remains of the budget, so supervision finishes near one
          deadline — never [deadline_s * (retries + 1)]. *)
  retries : int;  (** Re-attempts after the first failure. *)
  backoff_s : float;
      (** Base backoff; attempt [k] sleeps [backoff_s * 2^(k-1)] — but
          with a deadline the sleep never exceeds what is left of the
          item's budget, and a retry whose budget is already spent is
          skipped entirely: the supervisor cannot sleep past the
          deadline it enforces. *)
}

val default_policy : policy
(** No deadline, 2 retries, 50 ms base backoff. *)

val supervised_for :
  ?work_per_index:int ->
  jobs:int ->
  policy:policy ->
  int ->
  (deadline:deadline -> attempt:int -> int -> unit) ->
  Sim_error.t option array
(** [supervised_for ~jobs ~policy n f] runs every index like
    {!parallel_for} but never lets one index abort the others: index [i]
    is attempted up to [1 + retries] times ([attempt] is 1-based, so the
    item can restore a pre-attempt snapshot when [attempt > 1]), and the
    result slot [i] holds [None] on success or [Some error] when every
    attempt failed.  [f] must leave slot-confined state restorable by
    the caller — the scheduler does not know how to roll work back. *)
