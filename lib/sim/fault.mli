(** Seeded, deterministic fault model and campaign driver.

    Two fault classes, both keyed off one seed so campaigns are exactly
    reproducible run-to-run:

    {ul
    {- {e Permanent defects} — stuck-at CAM cells (column granularity),
       dead tiles and stuck crossbar switch rows, sampled once per
       campaign into a {!Defect.t} that the mapper consumes: placement
       skips dead tiles, repairs stuck CAM columns from the per-tile
       spare-column pool, and drops (with a structured reason) whatever no
       surviving array can host.}
    {- {e Transient faults} — per-cycle, per-bit flips in the stored
       active vectors and BV words ({!Engine.flip_state_bit}) at a
       configurable rate, injected through a {!Sink.t}'s [on_state]
       hook attached to {!Runner.run}.}}

    {!campaign} runs [trials] seeded trials of a rule set, cross-checks
    each against the software reference (the {!Consistency} methodology)
    and reports functional-correctness rate, missed/false match counts and
    throughput/utilisation degradation.  A zero-rate, zero-defect campaign
    is bit-identical to the fault-free {!Runner.run} report. *)

(** {1 Deterministic PRNG} (splitmix64; independent of [Stdlib.Random]) *)

type rng

val make_rng : int -> rng
val rand_float : rng -> float
(** Uniform in [\[0, 1)]. *)

val rand_int : rng -> int -> int
(** [rand_int r n] is uniform in [\[0, n)]; [n > 0]. *)

(** {1 Campaign configuration} *)

type config = {
  seed : int;
  trials : int;
  transient_rate : float;  (** Per-bit per-cycle flip probability. *)
  cell_defect_rate : float;  (** Per-CAM-column stuck-at probability. *)
  tile_defect_rate : float;  (** Per-tile dead probability. *)
  switch_defect_rate : float;  (** Per-switch-row stuck-at probability. *)
  chip_arrays : int;  (** Physical arrays on the sampled chip. *)
  spare_cols : int;  (** Spare CAM columns per tile (repair pool). *)
}

val default_config : config
(** seed 1, 5 trials, all rates 0, 64 arrays, {!Defect.default_spare_cols}
    spares. *)

(** {1 Campaign} *)

type trial = {
  t_index : int;
  t_flips : int;  (** Transient bit flips injected in this trial. *)
  t_missed : int;  (** Reference match positions the faulty hardware missed. *)
  t_false : int;  (** Hardware report positions the reference rejects. *)
  t_reports : int;  (** Total reporting-STE activations. *)
  t_cycles : int;
  t_throughput_gchs : float;
}

type outcome = {
  o_baseline : Runner.report;  (** Pristine, fault-free run. *)
  o_degraded : Runner.report;
      (** Fault-free run of the defect-aware placement (equals
          [o_baseline] on a pristine chip). *)
  o_compile_errors : Compile_error.t list;  (** Regexes no backend accepts. *)
  o_baseline_drops : Compile_error.t list;  (** Dropped even defect-free (oversize). *)
  o_drops : Compile_error.t list;  (** Defect-induced placement drops. *)
  o_defect_stats : Mapper.defect_stats;
  o_defects : Defect.t;
  o_trials : trial list;
  o_reference_matches : int;  (** Reference match positions for placed regexes. *)
}

val correctness_rate : outcome -> float
(** Fraction of trials with zero missed and zero false matches. *)

val utilisation_loss : outcome -> float
(** Baseline minus degraded column utilisation (fraction). *)

val campaign :
  arch:Arch.t ->
  params:Program.params ->
  config:config ->
  (string * Ast.t) list ->
  input:string ->
  (outcome, string) result
(** Compile the rule set, map it pristine (baseline) and defect-aware
    (degraded), then run [config.trials] seeded transient-fault trials on
    the degraded placement, cross-checking reported match positions
    against the software reference of every fully placed regex. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** The degradation table: per-trial rows plus the summary line. *)

(** {1 Runtime chaos campaign}

    Attacks the {e runtime} rather than the modelled hardware: one
    seeded bit flip per trial — into an engine's stored run state
    ({!Engine.flip_state_bit}) or into the immutable compiled tables
    ({!Engine.immutable_regions}) — against a run armed with
    wall-to-wall integrity checking
    ({!Integrity.continuous_config}).  Trials are classified from the
    outside, by byte-comparing the rendered report against the
    fault-free baseline, so the harness cannot be fooled by the layer
    under test:

    - {e recovered}: detected, healed, report byte-identical;
    - {e typed-degraded}: detected, healing exhausted, a typed
      [Integrity_violation] in [report.degraded];
    - {e benign}: undetected but provably harmless (report identical —
      e.g. the flip killed a state the next symbol would have killed);
    - {e silent-wrong}: undetected and the report differs.  The failure
      mode the layer exists to prevent; both gates require zero. *)

type chaos_target = C_state | C_table

type chaos_config = {
  c_seed : int;
  c_trials : int;
  c_chunk : int;  (** Stream chunk size — the rollback/re-execution grain. *)
  c_table_share : float;  (** Fraction of trials that target compiled tables. *)
}

val default_chaos_config : chaos_config
(** seed 1, 60 trials, 1 KiB chunks, 40% table flips. *)

val flip_region_bit : rng -> Engine.region -> bool
(** Flip one uniformly chosen bit of a live compiled region; [false] when
    the region is empty.  Exposed for tests. *)

type chaos_trial = {
  c_index : int;
  c_target : chaos_target;
  c_inject_sym : int;  (** Symbol the flip landed at; [-1] if it never fired. *)
  c_detect_sym : int;  (** Symbol of detection; [-1] undetected. *)
  c_heals : int;
  c_quarantined : bool;
  c_recovered : bool;
  c_degraded_typed : bool;
  c_silent_wrong : bool;
  c_wall_s : float;
}

type chaos_outcome = {
  co_baseline : Runner.report;
  co_baseline_wall_s : float;
  co_trials : chaos_trial list;
  co_compile_errors : Compile_error.t list;
      (** Rules dropped at set-up ({!Runner.prepare}): compile errors,
          then placement drops. *)
}

val chaos :
  arch:Arch.t ->
  params:Program.params ->
  config:chaos_config ->
  (string * Ast.t) list ->
  input:string ->
  (chaos_outcome, string) result
(** Set up once ({!Runner.prepare}, then {!Runner.build}, sealed), run the
    fault-free baseline, then [config.c_trials] seeded single-flip
    trials with integrity armed.  The baseline and every trial step
    fresh clones of the prepared executors; a trial's heals repair from
    the prepared seals, and {!Runner.repair} writes every table back
    from them after each trial, so trials are independent even when a
    trial's own healing gave up.  Deterministic in [c_seed]. *)

val chaos_injected : chaos_outcome -> int
val chaos_detected : chaos_outcome -> int
val chaos_benign : chaos_outcome -> int
val chaos_silent_wrong : chaos_outcome -> int
val chaos_recovered : chaos_outcome -> int
val chaos_degraded_typed : chaos_outcome -> int
val chaos_heals : chaos_outcome -> int
val chaos_quarantines : chaos_outcome -> int

val chaos_detection_rate : chaos_outcome -> float
(** Detected / (detected + silent-wrong): the rate over {e harmful}
    flips; benign flips threaten nothing and are excluded. *)

val chaos_mttd_syms : chaos_outcome -> float
(** Mean symbols from injection to detection, over detected trials. *)

val chaos_mttr_s : chaos_outcome -> float
(** Mean wall-clock overhead versus the baseline run, over healed
    trials — the price of rollback plus chunk re-execution. *)

val chaos_detection_ok : chaos_outcome -> bool
(** Zero silent-wrong trials and detection rate >= 99%. *)

val chaos_recovery_ok : chaos_outcome -> bool
(** Zero silent-wrong trials and every detected fault either recovered
    bit-identically or surfaced a typed degraded error. *)

val pp_chaos_outcome : Format.formatter -> chaos_outcome -> unit
